/** @file Tests for SLO capacity planning. */

#include "analysis/capacity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "drive/capacity_controller.h"
#include "stats/summary.h"
#include "util/error.h"

namespace treadmill {
namespace analysis {
namespace {

CapacityParams
quickCapacity(double sloUs)
{
    CapacityParams params;
    params.base.collector.warmUpSamples = 100;
    params.base.collector.calibrationSamples = 100;
    params.base.collector.measurementSamples = 1200;
    params.base.config.dvfs = hw::DvfsGovernor::Performance;
    params.tau = 0.99;
    params.sloUs = sloUs;
    params.maxIterations = 4;
    params.runsPerPoint = 2;
    params.seed = 8;
    return params;
}

/** The fixed bisection: the controller with maxRunsPerProbe ==
 *  runsPerPoint (no re-probes, no early exit). */
drive::CapacitySearchResult
fixedSearch(const CapacityParams &params)
{
    drive::CapacityControllerParams controls;
    controls.search = params;
    controls.maxRunsPerProbe = params.runsPerPoint;
    return drive::CapacityController(controls).search();
}

TEST(CapacityTest, RejectsBadParameters)
{
    CapacityParams bad = quickCapacity(100.0);
    bad.sloUs = 0.0;
    EXPECT_THROW(fixedSearch(bad), ConfigError);
    bad = quickCapacity(100.0);
    bad.utilizationLow = 0.9;
    bad.utilizationHigh = 0.5;
    EXPECT_THROW(fixedSearch(bad), ConfigError);
    bad = quickCapacity(100.0);
    bad.runsPerPoint = 0;
    EXPECT_THROW(fixedSearch(bad), ConfigError);
}

TEST(CapacityTest, GenerousSloAllowsHighBracket)
{
    // A very loose SLO is met even at the top of the bracket.
    const auto result = fixedSearch(quickCapacity(100000.0));
    EXPECT_FALSE(result.infeasible);
    EXPECT_DOUBLE_EQ(result.maxUtilization, 0.90);
    EXPECT_LE(result.probes.size(), 2u);
}

TEST(CapacityTest, ImpossibleSloReportsInfeasible)
{
    // No configuration serves a 1 us P99.
    const auto result = fixedSearch(quickCapacity(1.0));
    EXPECT_TRUE(result.infeasible);
    EXPECT_DOUBLE_EQ(result.maxUtilization, 0.0);
}

TEST(CapacityTest, ModerateSloBisectsToInteriorPoint)
{
    // Pick an SLO between the low-load and high-load P99 so the
    // answer must lie strictly inside the bracket.
    const auto result = fixedSearch(quickCapacity(200.0));
    ASSERT_FALSE(result.infeasible);
    EXPECT_GT(result.maxUtilization, 0.05);
    EXPECT_LT(result.maxUtilization, 0.90);
    EXPECT_LE(result.latencyAtMaxUs, 200.0);
    EXPECT_GT(result.maxRequestsPerSecond, 0.0);
    // Bracket + iterations probes recorded.
    EXPECT_EQ(result.probes.size(), 2u + 4u);
}

TEST(CapacityTest, ProbeLatencyIncreasesWithUtilization)
{
    const auto result = fixedSearch(quickCapacity(200.0));
    // The two bracket probes: low util must be faster than high util.
    ASSERT_GE(result.probes.size(), 2u);
    EXPECT_LT(result.probes[0].comparison.mean,
              result.probes[1].comparison.mean);
}

TEST(CompareToSloTest, TooFewRunsIsAlwaysUncertain)
{
    EXPECT_EQ(compareToSlo({}, 100.0).verdict, SloVerdict::Uncertain);
    EXPECT_EQ(compareToSlo({50.0}, 100.0).verdict,
              SloVerdict::Uncertain);
}

TEST(CompareToSloTest, TightSamplesResolveCleanly)
{
    // Low-variance samples far from the bound give a decisive CI.
    const std::vector<double> fast = {99.0, 100.0, 101.0};
    const SloComparison clears = compareToSlo(fast, 1000.0);
    EXPECT_EQ(clears.verdict, SloVerdict::Clears);
    EXPECT_EQ(clears.runs, 3u);
    EXPECT_NEAR(clears.mean, 100.0, 1e-9);
    EXPECT_LT(clears.ciHighUs, 1000.0);

    const SloComparison violates = compareToSlo(fast, 10.0);
    EXPECT_EQ(violates.verdict, SloVerdict::Violates);
    EXPECT_GT(violates.ciLowUs, 10.0);
}

TEST(CompareToSloTest, StraddlingIntervalStaysUncertain)
{
    // Spread across the bound: the CI must contain it.
    const std::vector<double> noisy = {60.0, 140.0};
    const SloComparison c = compareToSlo(noisy, 100.0);
    EXPECT_EQ(c.verdict, SloVerdict::Uncertain);
    EXPECT_LE(c.ciLowUs, 100.0);
    EXPECT_GE(c.ciHighUs, 100.0);
}

TEST(CompareToSloTest, WiderConfidenceWidensTheInterval)
{
    const std::vector<double> samples = {90.0, 100.0, 110.0, 105.0};
    const SloComparison narrow = compareToSlo(samples, 100.0, 0.80);
    const SloComparison wide = compareToSlo(samples, 100.0, 0.99);
    EXPECT_LT(narrow.ciHighUs - narrow.ciLowUs,
              wide.ciHighUs - wide.ciLowUs);
}

TEST(CompareToSloTest, CriticalValueAboveTheTableFollowsStudentT)
{
    // Back the 95% critical value out of the interval's half-width.
    // Past the 30-df table it must track Student's t (2.040 at 31 df),
    // not drop to the normal 1.960.
    for (const auto &[df, expected] :
         {std::pair{30u, 2.042}, std::pair{31u, 2.040},
          std::pair{40u, 2.021}, std::pair{60u, 2.000},
          std::pair{120u, 1.980}}) {
        std::vector<double> samples;
        for (unsigned i = 0; i <= df; ++i)
            samples.push_back(i % 2 == 0 ? 90.0 : 110.0 + i);
        const SloComparison c = compareToSlo(samples, 100.0);
        ASSERT_EQ(c.runs, df + 1u);
        const double tcrit = (c.ciHighUs - c.mean) *
                             std::sqrt(static_cast<double>(c.runs)) /
                             stats::stddev(samples);
        EXPECT_NEAR(tcrit, expected, 1e-3) << "df " << df;
    }
}

} // namespace
} // namespace analysis
} // namespace treadmill
