/** @file Tests for configuration recommendation (Fig 12 protocol). */

#include "analysis/recommend.h"

#include <gtest/gtest.h>

#include "drive/study_driver.h"
#include "util/error.h"

namespace treadmill {
namespace analysis {
namespace {

AttributionParams
quickAttribution()
{
    AttributionParams params;
    params.base.targetUtilization = 0.7;
    params.base.collector.warmUpSamples = 150;
    params.base.collector.calibrationSamples = 150;
    params.base.collector.measurementSamples = 1200;
    params.quantiles = {0.5, 0.99};
    params.repsPerConfig = 2;
    params.bootstrapReplicates = 40;
    params.seed = 33;
    return params;
}

const AttributionResult &
sharedResult()
{
    static const AttributionResult result =
        drive::runAttribution(quickAttribution());
    return result;
}

TEST(RecommendTest, RankingCoversAllSixteenCells)
{
    const auto ranked = rankConfigurations(sharedResult(), 0.99);
    ASSERT_EQ(ranked.size(), 16u);
    for (std::size_t i = 1; i < ranked.size(); ++i)
        EXPECT_LE(ranked[i - 1].predictedUs, ranked[i].predictedUs);
    // All 16 distinct configurations present.
    unsigned mask = 0;
    for (const auto &p : ranked)
        mask |= 1u << p.config.index();
    EXPECT_EQ(mask, 0xffffu);
}

TEST(RecommendTest, BestConfigurationIsRankedFirst)
{
    const auto ranked = rankConfigurations(sharedResult(), 0.99);
    EXPECT_EQ(bestConfiguration(sharedResult(), 0.99),
              ranked.front().config);
}

TEST(RecommendTest, BestConfigBeatsWorstWhenMeasured)
{
    const auto &attr = sharedResult();
    const auto ranked = rankConfigurations(attr, 0.99);

    core::ExperimentParams base = quickAttribution().base;
    base.requestsPerSecond =
        core::deriveRequestRate(quickAttribution().base);

    const auto measure = [&](const hw::HardwareConfig &cfg,
                             std::uint64_t seed) {
        core::ExperimentParams p = base;
        p.config = cfg;
        p.seed = seed;
        return core::runExperiment(p).aggregatedQuantile(
            0.99, core::AggregationKind::PerInstance);
    };
    // Average over a few runs to get past hysteresis noise.
    double best = 0.0;
    double worst = 0.0;
    for (std::uint64_t s = 1; s <= 3; ++s) {
        best += measure(ranked.front().config, 100 + s);
        worst += measure(ranked.back().config, 200 + s);
    }
    EXPECT_LT(best, worst);
}

TEST(RecommendTest, ImprovementReducesLatencyAndVariance)
{
    ImprovementParams params;
    params.base = quickAttribution().base;
    params.base.requestsPerSecond =
        core::deriveRequestRate(quickAttribution().base);
    params.tau = 0.99;
    params.runsPerArm = 12;
    params.seed = 5;

    const auto result =
        drive::evaluateImprovement(sharedResult(), params);
    ASSERT_EQ(result.before.perRunQuantileUs.size(), 12u);
    ASSERT_EQ(result.after.perRunQuantileUs.size(), 12u);
    // Fig 12: tuned configuration reduces the expected tail and its
    // run-to-run variability.
    EXPECT_GT(result.latencyReduction(), 0.0);
    EXPECT_GT(result.variabilityReduction(), 0.0);
    EXPECT_LT(result.after.mean, result.before.mean);
}

TEST(RecommendTest, RejectsZeroRuns)
{
    ImprovementParams params;
    params.runsPerArm = 0;
    EXPECT_THROW(drive::evaluateImprovement(sharedResult(), params),
                 ConfigError);
}

} // namespace
} // namespace analysis
} // namespace treadmill
