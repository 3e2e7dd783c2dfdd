/** @file Integration tests for the attribution pipeline. */

#include "analysis/attribution.h"

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
    params.seed = 21;
    return params;
}

/** One shared (expensive) attribution run for all tests. */
const AttributionResult &
sharedResult()
{
    static const AttributionResult result =
        drive::runAttribution(quickAttribution());
    return result;
}

TEST(AttributionTest, CollectsRepsTimesSixteenObservations)
{
    const auto &r = sharedResult();
    EXPECT_EQ(r.observations.size(), 32u);
    // Every factorial cell appears exactly repsPerConfig times.
    std::vector<int> counts(16, 0);
    for (const auto &obs : r.observations)
        ++counts[obs.config.index()];
    for (int c : counts)
        EXPECT_EQ(c, 2);
}

TEST(AttributionTest, ObservationOrderIsShuffled)
{
    const auto &r = sharedResult();
    // The first 16 observations should not be config 0..15 in order.
    bool inOrder = true;
    for (unsigned i = 0; i < 16; ++i)
        inOrder &= r.observations[i].config.index() == i;
    EXPECT_FALSE(inOrder);
}

TEST(AttributionTest, FitsOneModelPerQuantile)
{
    const auto &r = sharedResult();
    ASSERT_EQ(r.models.size(), 2u);
    EXPECT_DOUBLE_EQ(r.models[0].tau, 0.5);
    EXPECT_DOUBLE_EQ(r.models[1].tau, 0.99);
    EXPECT_EQ(r.models[0].terms.size(), 16u);
    EXPECT_NO_THROW(r.model(0.5));
    EXPECT_THROW(r.model(0.42), NumericalError);
}

TEST(AttributionTest, InterceptIsBaselineLatency)
{
    const auto &r = sharedResult();
    // The intercept approximates the all-low configuration's latency.
    const double p50Intercept = r.model(0.5).terms[0].estimate;
    EXPECT_GT(p50Intercept, 30.0);
    EXPECT_LT(p50Intercept, 150.0);
    const double p99Intercept = r.model(0.99).terms[0].estimate;
    EXPECT_GT(p99Intercept, p50Intercept * 2.0);
}

TEST(AttributionTest, TurboReducesTailLatency)
{
    // Finding 8 analogue for memcached: turbo's isolated effect is a
    // latency reduction at the tail.
    const auto &r = sharedResult();
    const double impact = r.averageFactorImpact(0.99, 1); // turbo
    EXPECT_LT(impact, 0.0);
}

TEST(AttributionTest, NumaInterleaveHurtsTailAtHighLoad)
{
    // Finding 6: interleave increases latency under high load.
    const auto &r = sharedResult();
    EXPECT_GT(r.averageFactorImpact(0.99, 0), 0.0); // numa
}

TEST(AttributionTest, PredictionMatchesCoefficientArithmetic)
{
    // Table IV usage: the prediction for a config is the sum of its
    // active terms.
    const auto &r = sharedResult();
    hw::HardwareConfig cfg;
    cfg.numa = hw::NumaPolicy::Interleave;
    cfg.turbo = hw::TurboMode::On;
    const auto &m = r.model(0.99);
    double manual = m.terms[0].estimate;      // intercept
    manual += m.terms[1].estimate;            // numa
    manual += m.terms[2].estimate;            // turbo
    manual += m.terms[3].estimate;            // numa:turbo
    EXPECT_NEAR(r.predict(0.99, cfg), manual, 1e-9);
}

TEST(AttributionTest, PseudoR2IsReportedAndPositive)
{
    const auto &r = sharedResult();
    for (const auto &m : r.models) {
        EXPECT_GT(m.pseudoR2, 0.2);
        EXPECT_LE(m.pseudoR2, 1.0);
    }
}

TEST(AttributionTest, TailModelHasLargerUncertainty)
{
    // Finding 2: standard errors grow toward the tail. Compared over
    // all 16 terms: any one term's SE here is the resampling spread of
    // 2 runs per cell, too few to order a single pair reliably.
    const auto &r = sharedResult();
    const auto meanSe = [](const QuantileModel &m) {
        double total = 0.0;
        for (const TermEstimate &t : m.terms)
            total += t.standardError;
        return total / static_cast<double>(m.terms.size());
    };
    EXPECT_GT(meanSe(r.model(0.99)), meanSe(r.model(0.5)));
}

TEST(AttributionTest, UtilizationVariesAcrossConfigs)
{
    // The fixed request rate means heavier configs run hotter.
    const auto &r = sharedResult();
    double minUtil = 1.0;
    double maxUtil = 0.0;
    for (const auto &obs : r.observations) {
        minUtil = std::min(minUtil, obs.serverUtilization);
        maxUtil = std::max(maxUtil, obs.serverUtilization);
    }
    EXPECT_GT(maxUtil - minUtil, 0.02);
}

TEST(AttributionTest, RejectsZeroReps)
{
    AttributionParams bad = quickAttribution();
    bad.repsPerConfig = 0;
    EXPECT_THROW(drive::runAttribution(bad), ConfigError);
}

TEST(AttributionTest, FitRejectsEmptyObservations)
{
    EXPECT_THROW(fitAttribution(quickAttribution(), {}),
                 NumericalError);
}

} // namespace
} // namespace analysis
} // namespace treadmill
