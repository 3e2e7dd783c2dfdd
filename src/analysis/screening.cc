#include "analysis/screening.h"

#include "exec/parallel_for.h"
#include "stats/hypothesis.h"
#include "stats/summary.h"
#include "util/error.h"
#include "util/strings.h"

namespace treadmill {
namespace analysis {

std::vector<FactorScreen>
screenFactors(const AttributionResult &study,
              const ScreeningParams &params)
{
    if (study.levels.empty())
        throw NumericalError("screening needs runs");
    const auto responseIt = study.responses.find(params.tau);
    if (responseIt == study.responses.end() ||
        responseIt->second.size() != study.levels.size())
        throw NumericalError(strprintf(
            "screening: responses missing or mis-sized for tau=%g",
            params.tau));
    const std::vector<double> &y = responseIt->second;
    for (std::size_t i = 0; i < study.levels.size(); ++i) {
        if (study.levels[i].size() != study.design.factorCount())
            throw ConfigError(strprintf(
                "screening: run %zu has %zu levels for %zu factors", i,
                study.levels[i].size(), study.design.factorCount()));
    }

    const Rng rng = Rng(0x5c8ee71e5eedull).substream(params.seed);

    // Each factor's permutation test reads the shared data set and
    // draws from its own index-derived substream, so the screens run
    // concurrently into index-addressed slots.
    std::vector<FactorScreen> screens(study.design.factorCount());
    exec::parallelFor(
        params.parallelism, screens.size(), [&](std::size_t f) {
            const std::string name =
                study.design.termName(study.design.mainEffectTerm(f));
            std::vector<double> low;
            std::vector<double> high;
            for (std::size_t i = 0; i < y.size(); ++i)
                (study.levels[i][f] > 0.5 ? high : low).push_back(y[i]);
            if (low.empty() || high.empty()) {
                throw NumericalError("factor '" + name +
                                     "' never varies in the runs");
            }

            FactorScreen screen;
            screen.name = name;
            screen.effectUs = stats::mean(high) - stats::mean(low);
            Rng testRng = rng.substream(f + 1);
            const auto test = stats::permutationTest(
                high, low, params.permutations, testRng);
            screen.pValue = test.pValue;
            screen.significant = test.pValue < params.significance;
            screens[f] = std::move(screen);
        });
    return screens;
}

} // namespace analysis
} // namespace treadmill
