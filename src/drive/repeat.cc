#include "drive/repeat.h"

#include <algorithm>

#include "util/error.h"
#include "util/strings.h"

namespace treadmill {
namespace drive {

std::vector<double>
repeatRuns(const Repetitions &reps, const RunObserver &onRun)
{
    if (!reps.paramsOf)
        throw ConfigError("repeatRuns: paramsOf must be set");
    if (reps.maxRuns == 0)
        throw ConfigError("repeatRuns: maxRuns must be nonzero");
    if (reps.minRuns == 0 || reps.minRuns > reps.maxRuns)
        throw ConfigError(strprintf(
            "repeatRuns: minRuns (%zu) must lie in [1, maxRuns = %zu]",
            reps.minRuns, reps.maxRuns));

    const std::size_t lanes = reps.parallelism.resolve();
    std::vector<double> kept;
    bool stopped = false;
    while (kept.size() < reps.maxRuns && !stopped) {
        const std::size_t first = kept.size();
        // A rule cannot fire before minRuns, so that is its first wave;
        // every other wave is one run per lane, which bounds the results
        // held at once to max(minRuns, lanes).
        const std::size_t want =
            reps.stop && first == 0 ? reps.minRuns : lanes;
        const std::size_t wave = std::min(want, reps.maxRuns - first);
        std::vector<core::ExperimentParams> params;
        params.reserve(wave);
        for (std::size_t i = 0; i < wave; ++i)
            params.push_back(reps.paramsOf(first + i));
        std::vector<core::ExperimentResult> results(wave);
        exec::parallelFor(reps.parallelism, wave, [&](std::size_t i) {
            results[i] = core::runExperiment(params[i]);
        });
        // Strictly in run order; runs past the stop point are dropped.
        for (std::size_t i = 0; i < wave && !stopped; ++i) {
            kept.push_back(results[i].aggregatedQuantile(
                reps.tau, core::AggregationKind::PerInstance));
            if (onRun)
                onRun(first + i, params[i], results[i]);
            stopped = reps.stop && kept.size() >= reps.minRuns &&
                      reps.stop(kept);
        }
    }
    return kept;
}

} // namespace drive
} // namespace treadmill
