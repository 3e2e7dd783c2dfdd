/** @file Unit tests for the DVFS governor model. */

#include "hw/frequency.h"

#include <gtest/gtest.h>

#include "hw/machine_spec.h"

namespace treadmill {
namespace hw {
namespace {

TEST(FrequencyTest, PerformanceGovernorPinsNominal)
{
    CoreFrequency f(DvfsGovernor::Performance);
    EXPECT_EQ(f.step(), FreqStep::Base);
    EXPECT_DOUBLE_EQ(f.currentGhz(), kMachine.baseFreqGhz);

    // No amount of idleness moves it.
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(f.sampleWindow(1e6));
    EXPECT_EQ(f.step(), FreqStep::Base);
    EXPECT_EQ(f.transitions(), 0u);
}

TEST(FrequencyTest, OndemandBootsLow)
{
    CoreFrequency f(DvfsGovernor::Ondemand);
    EXPECT_EQ(f.step(), FreqStep::Min);
    EXPECT_DOUBLE_EQ(f.currentGhz(), kMachine.minFreqGhz);
}

TEST(FrequencyTest, OndemandUpscalesUnderLoad)
{
    CoreFrequency f(DvfsGovernor::Ondemand);
    f.accountBusy(0.5 * 1e6); // 50% of a 1ms window
    EXPECT_TRUE(f.sampleWindow(1e6));
    EXPECT_EQ(f.step(), FreqStep::Base);
    EXPECT_EQ(f.transitions(), 1u);
}

TEST(FrequencyTest, OndemandDownscalesWhenIdle)
{
    CoreFrequency f(DvfsGovernor::Ondemand);
    f.accountBusy(0.5 * 1e6);
    f.sampleWindow(1e6); // up to Base
    f.accountBusy(0.01 * 1e6);
    EXPECT_TRUE(f.sampleWindow(1e6)); // down to Min
    EXPECT_EQ(f.step(), FreqStep::Min);
    EXPECT_EQ(f.transitions(), 2u);
}

TEST(FrequencyTest, HysteresisBandHoldsStep)
{
    CoreFrequency f(DvfsGovernor::Ondemand);
    f.accountBusy(0.9 * 1e6);
    f.sampleWindow(1e6); // Base
    // Utilization between the thresholds: no change either way.
    const double mid = 0.5 * (kMachine.governorUpThreshold +
                              kMachine.governorDownThreshold);
    f.accountBusy(mid * 1e6);
    EXPECT_FALSE(f.sampleWindow(1e6));
    EXPECT_EQ(f.step(), FreqStep::Base);
}

TEST(FrequencyTest, TransitionsAccumulateStall)
{
    CoreFrequency f(DvfsGovernor::Ondemand);
    f.accountBusy(1e6);
    f.sampleWindow(1e6); // up
    f.sampleWindow(1e6); // down (no busy time accounted)
    // Two transitions accrued before any execution claimed the stall.
    EXPECT_EQ(f.takePendingStall(),
              2 * kMachine.frequencyTransitionStall);
    EXPECT_EQ(f.takePendingStall(), 0u);
}

TEST(FrequencyTest, BusyWindowResetsEachSample)
{
    CoreFrequency f(DvfsGovernor::Ondemand);
    f.accountBusy(1e6);
    f.sampleWindow(1e6); // consumed
    // Next window sees zero busy -> downscale.
    EXPECT_TRUE(f.sampleWindow(1e6));
    EXPECT_EQ(f.step(), FreqStep::Min);
}

TEST(FrequencyTest, UtilizationClampedToOne)
{
    CoreFrequency f(DvfsGovernor::Ondemand);
    f.accountBusy(5e6); // 500% of the window (queued work overlap)
    EXPECT_TRUE(f.sampleWindow(1e6));
    EXPECT_EQ(f.step(), FreqStep::Base);
}

} // namespace
} // namespace hw
} // namespace treadmill
