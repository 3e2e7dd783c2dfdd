#include "analysis/recommend.h"

#include <algorithm>

namespace treadmill {
namespace analysis {

std::vector<ConfigPrediction>
rankConfigurations(const AttributionResult &attribution, double tau)
{
    std::vector<ConfigPrediction> ranked;
    ranked.reserve(16);
    for (const hw::HardwareConfig &config : hw::allConfigs()) {
        ConfigPrediction p;
        p.config = config;
        p.predictedUs = attribution.predict(tau, config);
        ranked.push_back(p);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const ConfigPrediction &a,
                        const ConfigPrediction &b) {
                         return a.predictedUs < b.predictedUs;
                     });
    return ranked;
}

hw::HardwareConfig
bestConfiguration(const AttributionResult &attribution, double tau)
{
    return rankConfigurations(attribution, tau).front().config;
}

double
ImprovementResult::latencyReduction() const
{
    if (before.mean == 0.0)
        return 0.0;
    return (before.mean - after.mean) / before.mean;
}

double
ImprovementResult::variabilityReduction() const
{
    if (before.stddev == 0.0)
        return 0.0;
    return (before.stddev - after.stddev) / before.stddev;
}

} // namespace analysis
} // namespace treadmill
