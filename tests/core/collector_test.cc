/** @file Unit tests for three-phase sample collection. */

#include "core/collector.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/random_variates.h"

namespace treadmill {
namespace core {
namespace {

SampleCollector::Params
smallParams()
{
    SampleCollector::Params p;
    p.warmUpSamples = 10;
    p.calibrationSamples = 20;
    p.measurementSamples = 100;
    return p;
}

TEST(CollectorTest, PhasesProgressInOrder)
{
    SampleCollector c(smallParams(), Rng(1));
    EXPECT_EQ(c.phase(), Phase::WarmUp);
    for (int i = 0; i < 10; ++i)
        c.add(1.0);
    EXPECT_EQ(c.phase(), Phase::Calibration);
    for (int i = 0; i < 20; ++i)
        c.add(1.0 + i);
    EXPECT_EQ(c.phase(), Phase::Measurement);
    for (int i = 0; i < 100; ++i)
        c.add(5.0);
    EXPECT_EQ(c.phase(), Phase::Done);
    EXPECT_TRUE(c.done());
}

TEST(CollectorTest, WarmUpSamplesAreDiscarded)
{
    SampleCollector c(smallParams(), Rng(2));
    // Enormous warm-up latencies must not contaminate measurement.
    for (int i = 0; i < 10; ++i)
        c.add(100000.0);
    for (int i = 0; i < 20; ++i)
        c.add(10.0 + i * 0.1);
    for (int i = 0; i < 100; ++i)
        c.add(10.0);
    EXPECT_LT(c.quantile(1.0), 100.0);
    EXPECT_EQ(c.measured(), 100u);
}

TEST(CollectorTest, CalibrationDoesNotCountTowardMeasurement)
{
    SampleCollector c(smallParams(), Rng(3));
    for (int i = 0; i < 30; ++i) // warm-up + calibration
        c.add(5.0);
    EXPECT_EQ(c.measured(), 0u);
    c.add(5.0);
    EXPECT_EQ(c.measured(), 1u);
}

TEST(CollectorTest, LateSamplesIgnoredAfterDone)
{
    SampleCollector c(smallParams(), Rng(4));
    for (int i = 0; i < 10 + 20 + 100; ++i)
        c.add(5.0);
    EXPECT_TRUE(c.done());
    c.add(999999.0);
    EXPECT_EQ(c.measured(), 100u);
    EXPECT_LT(c.quantile(1.0), 1000.0);
}

TEST(CollectorTest, QuantileTracksInputDistribution)
{
    auto p = smallParams();
    p.measurementSamples = 20000;
    SampleCollector c(p, Rng(5));
    Rng rng(6);
    Exponential exp(0.01); // mean 100 us
    for (std::uint64_t i = 0; i < 30 + 20000; ++i)
        c.add(exp.sample(rng));
    // Exponential: P50 = 69.3, P99 = 460.5.
    EXPECT_NEAR(c.quantile(0.5), 69.3, 6.0);
    EXPECT_NEAR(c.quantile(0.99), 460.5, 40.0);
    EXPECT_NEAR(c.mean(), 100.0, 5.0);
}

TEST(CollectorTest, AdaptiveSurvivesCalibrationUnderestimatingTail)
{
    // Calibrate on fast samples, then measure a 20x slower regime:
    // the adaptive histogram must re-bin and stay accurate.
    auto p = smallParams();
    p.measurementSamples = 5000;
    SampleCollector c(p, Rng(7));
    for (int i = 0; i < 30; ++i)
        c.add(10.0);
    Rng rng(8);
    Exponential exp(0.005); // mean 200
    std::vector<double> exact;
    for (int i = 0; i < 5000; ++i) {
        const double x = exp.sample(rng);
        exact.push_back(x);
        c.add(x);
    }
    std::sort(exact.begin(), exact.end());
    const double trueP99 = exact[static_cast<std::size_t>(0.99 * 5000)];
    EXPECT_NEAR(c.quantile(0.99), trueP99, trueP99 * 0.08);
    ASSERT_NE(c.adaptiveHistogram(), nullptr);
    EXPECT_GT(c.adaptiveHistogram()->rebinCount(), 0u);
}

TEST(CollectorTest, StaticHistogramClampsTail)
{
    SampleCollector::Params p;
    p.warmUpSamples = 0;
    p.histogram = HistogramKind::Static;
    p.staticHi = 100.0;
    p.measurementSamples = 1000;
    SampleCollector c(p, Rng(9));
    EXPECT_EQ(c.phase(), Phase::Measurement);
    for (int i = 0; i < 1000; ++i)
        c.add(500.0); // all above the static range
    EXPECT_LE(c.quantile(0.99), 100.0); // clamped: the pitfall
    ASSERT_NE(c.staticHistogram(), nullptr);
    EXPECT_EQ(c.staticHistogram()->clampedHigh(), 1000u);
}

TEST(CollectorTest, RawKindKeepsExactQuantiles)
{
    SampleCollector::Params p;
    p.warmUpSamples = 0;
    p.histogram = HistogramKind::Raw;
    p.measurementSamples = 101;
    SampleCollector c(p, Rng(10));
    for (int i = 0; i <= 100; ++i)
        c.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(c.quantile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(c.quantile(1.0), 100.0);
}

TEST(CollectorTest, ReservoirHoldsAllWhenUnderCapacity)
{
    auto p = smallParams();
    p.measurementSamples = 50;
    SampleCollector c(p, Rng(11));
    for (int i = 0; i < 30 + 50; ++i)
        c.add(static_cast<double>(i));
    EXPECT_EQ(c.rawSamples().size(), 50u);
}

TEST(CollectorTest, TrajectoryRecordsEstimates)
{
    auto p = smallParams();
    p.measurementSamples = 1000;
    p.trajectoryEvery = 100;
    p.trajectoryQuantile = 0.99;
    SampleCollector c(p, Rng(12));
    Rng rng(13);
    Exponential exp(0.01);
    for (int i = 0; i < 30 + 1000; ++i)
        c.add(exp.sample(rng));
    EXPECT_EQ(c.trajectory().size(), 10u);
    EXPECT_EQ(c.trajectory().front().first, 100u);
    EXPECT_EQ(c.trajectory().back().first, 1000u);
    for (const auto &[n, estimate] : c.trajectory())
        EXPECT_GT(estimate, 0.0);
}

TEST(CollectorTest, RejectsZeroMeasurementTarget)
{
    SampleCollector::Params p;
    p.measurementSamples = 0;
    EXPECT_THROW(SampleCollector(p, Rng(1)), ConfigError);
}

TEST(CollectorTest, QuantileBeforeSamplesThrows)
{
    SampleCollector c(smallParams(), Rng(14));
    EXPECT_THROW(c.quantile(0.5), NumericalError);
}

} // namespace
} // namespace core
} // namespace treadmill
