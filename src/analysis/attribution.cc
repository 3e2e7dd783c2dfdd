#include "analysis/attribution.h"

#include "regress/pseudo_r2.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/strings.h"

namespace treadmill {
namespace analysis {

const QuantileModel &
AttributionResult::model(double tau) const
{
    for (const QuantileModel &m : models) {
        if (m.tau == tau)
            return m;
    }
    throw NumericalError(strprintf("no model fitted for tau=%g", tau));
}

double
AttributionResult::predict(double tau,
                           const hw::HardwareConfig &config) const
{
    const QuantileModel &m = model(tau);
    const auto levels = config.levels();
    const regress::Vec row = design.designRow(
        std::vector<double>(levels.begin(), levels.end()));
    return m.fit.predict(row);
}

double
AttributionResult::averageFactorImpact(double tau,
                                       std::size_t factorIdx) const
{
    TM_ASSERT(factorIdx < 4, "factor index out of range");
    // Average predict(high) - predict(low) over all 8 settings of the
    // other factors.
    double total = 0.0;
    unsigned count = 0;
    for (unsigned others = 0; others < 16; ++others) {
        if (others & (1u << factorIdx))
            continue; // enumerate with this factor low
        const hw::HardwareConfig low = hw::HardwareConfig::fromIndex(
            others);
        const hw::HardwareConfig high = hw::HardwareConfig::fromIndex(
            others | (1u << factorIdx));
        total += predict(tau, high) - predict(tau, low);
        ++count;
    }
    return total / static_cast<double>(count);
}

double
AttributionResult::averageFactorImpactGiven(double tau,
                                            std::size_t factorIdx,
                                            std::size_t givenIdx,
                                            bool givenHigh) const
{
    TM_ASSERT(factorIdx < 4 && givenIdx < 4, "factor index out of range");
    TM_ASSERT(factorIdx != givenIdx,
              "conditioning factor must differ from the switched one");
    double total = 0.0;
    unsigned count = 0;
    for (unsigned others = 0; others < 16; ++others) {
        if (others & (1u << factorIdx))
            continue;
        const bool givenIsHigh = (others & (1u << givenIdx)) != 0;
        if (givenIsHigh != givenHigh)
            continue;
        const hw::HardwareConfig low =
            hw::HardwareConfig::fromIndex(others);
        const hw::HardwareConfig high = hw::HardwareConfig::fromIndex(
            others | (1u << factorIdx));
        total += predict(tau, high) - predict(tau, low);
        ++count;
    }
    return total / static_cast<double>(count);
}

std::vector<QuantileModel>
fitFactorialModels(const regress::FactorialDesign &design,
                   const std::vector<std::vector<double>> &levels,
                   const std::map<double, std::vector<double>> &responses,
                   const FactorialFitParams &params)
{
    if (levels.empty())
        throw NumericalError("factorial fit needs observations");

    const Rng rng = Rng(0xbead5eedful).substream(params.seed);
    const auto names = design.termNames();
    std::vector<QuantileModel> models;
    for (double tau : params.quantiles) {
        const auto responseIt = responses.find(tau);
        if (responseIt == responses.end() ||
            responseIt->second.size() != levels.size())
            throw NumericalError(
                strprintf("responses missing or mis-sized for tau=%g",
                          tau));
        const regress::Vec &y = responseIt->second;

        Rng bootRng = rng.substream(
            static_cast<std::uint64_t>(tau * 1e6));
        const regress::QuantRegInference inference =
            regress::bootstrapFactorial(design, levels, y, tau,
                                        params.bootstrapReplicates,
                                        bootRng);

        QuantileModel model;
        model.tau = tau;
        model.fit = inference.fit;
        regress::Vec predicted;
        predicted.reserve(levels.size());
        for (const std::vector<double> &l : levels)
            predicted.push_back(model.fit.predict(design.designRow(l)));
        model.pseudoR2 = regress::pseudoR2(y, predicted, tau);
        for (std::size_t t = 0; t < names.size(); ++t) {
            TermEstimate term;
            term.name = names[t];
            term.estimate = inference.coefficients[t].estimate;
            term.standardError =
                inference.coefficients[t].standardError;
            term.pValue = inference.coefficients[t].pValue;
            model.terms.push_back(std::move(term));
        }
        models.push_back(std::move(model));
    }
    return models;
}

AttributionResult
fitAttribution(const AttributionParams &params,
               std::vector<Observation> observations)
{
    if (observations.empty())
        throw NumericalError("attribution needs observations");

    AttributionResult result;
    result.observations = std::move(observations);

    std::vector<std::vector<double>> levels;
    levels.reserve(result.observations.size());
    for (const Observation &obs : result.observations) {
        const auto l = obs.config.levels();
        levels.emplace_back(l.begin(), l.end());
    }
    std::map<double, std::vector<double>> responses;
    for (double tau : params.quantiles) {
        std::vector<double> y;
        y.reserve(result.observations.size());
        for (const Observation &obs : result.observations) {
            const auto it = obs.quantileUs.find(tau);
            if (it == obs.quantileUs.end())
                throw NumericalError(
                    strprintf("observation missing tau=%g", tau));
            y.push_back(it->second);
        }
        responses.emplace(tau, std::move(y));
    }

    FactorialFitParams fit;
    fit.quantiles = params.quantiles;
    fit.bootstrapReplicates = params.bootstrapReplicates;
    fit.seed = params.seed;
    result.models =
        fitFactorialModels(result.design, levels, responses, fit);
    return result;
}

} // namespace analysis
} // namespace treadmill
