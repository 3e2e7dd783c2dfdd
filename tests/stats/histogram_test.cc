/** @file Unit tests for adaptive and static histograms. */

#include "stats/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stats/summary.h"
#include "util/error.h"
#include "util/random_variates.h"
#include "util/rng.h"

namespace treadmill {
namespace stats {
namespace {

std::vector<double>
exponentialSamples(std::uint64_t seed, int n, double rate)
{
    Rng rng(seed);
    Exponential e(rate);
    std::vector<double> xs;
    xs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        xs.push_back(e.sample(rng));
    return xs;
}

TEST(AdaptiveHistogramTest, RequiresCalibrationSamples)
{
    EXPECT_THROW(AdaptiveHistogram(std::vector<double>{}), NumericalError);
}

TEST(AdaptiveHistogramTest, RejectsBadParams)
{
    AdaptiveHistogram::Params p;
    p.binCount = 1;
    EXPECT_THROW(AdaptiveHistogram(std::vector<double>{1.0}, p),
                 ConfigError);
    EXPECT_THROW(AdaptiveHistogram(5.0, 5.0), ConfigError);
}

TEST(AdaptiveHistogramTest, CountsAllSamples)
{
    AdaptiveHistogram h({1.0, 2.0, 3.0});
    EXPECT_EQ(h.count(), 3u);
    h.add(2.5);
    EXPECT_EQ(h.count(), 4u);
}

TEST(AdaptiveHistogramTest, QuantileTracksExactForInRangeData)
{
    auto calib = exponentialSamples(1, 2000, 0.01);
    AdaptiveHistogram h(calib);
    auto data = exponentialSamples(2, 100000, 0.01);
    std::vector<double> exact = data;
    for (double x : data)
        h.add(x);
    std::sort(exact.begin(), exact.end());
    exact.insert(exact.end(), calib.begin(), calib.end());
    std::sort(exact.begin(), exact.end());
    for (double q : {0.5, 0.9, 0.95, 0.99}) {
        const double expected = quantileSorted(exact, q);
        EXPECT_NEAR(h.quantile(q), expected, expected * 0.05)
            << "quantile " << q;
    }
}

TEST(AdaptiveHistogramTest, RebinsWhenTailExceedsRange)
{
    // Calibrate on small values, then feed much larger ones.
    AdaptiveHistogram::Params p;
    p.overflowTrigger = 8;
    AdaptiveHistogram h({1.0, 2.0, 3.0, 4.0}, p);
    const double hi0 = h.upperBound();
    for (int i = 0; i < 100; ++i)
        h.add(50.0 + i);
    EXPECT_GT(h.rebinCount(), 0u);
    EXPECT_GT(h.upperBound(), hi0);
    EXPECT_GE(h.upperBound(), 149.0);
    EXPECT_EQ(h.count(), 104u);
}

TEST(AdaptiveHistogramTest, QuantileCorrectAcrossRebinning)
{
    AdaptiveHistogram::Params p;
    p.binCount = 2048;
    p.overflowTrigger = 32;
    // Calibrate at low utilization then observe a 10x heavier tail,
    // the scenario that breaks statically binned histograms.
    auto calib = exponentialSamples(3, 1000, 1.0);
    AdaptiveHistogram h(calib, p);
    auto data = exponentialSamples(4, 50000, 0.1);
    std::vector<double> exact = calib;
    for (double x : data) {
        h.add(x);
        exact.push_back(x);
    }
    std::sort(exact.begin(), exact.end());
    for (double q : {0.5, 0.9, 0.99}) {
        const double expected = quantileSorted(exact, q);
        EXPECT_NEAR(h.quantile(q), expected, expected * 0.06)
            << "quantile " << q;
    }
    EXPECT_GT(h.rebinCount(), 0u);
}

TEST(AdaptiveHistogramTest, PendingOverflowIncludedInQuantile)
{
    AdaptiveHistogram::Params p;
    p.overflowTrigger = 1000; // never triggers in this test
    AdaptiveHistogram h({1.0, 2.0}, p);
    // Two huge values park in the overflow buffer.
    h.add(100.0);
    h.add(200.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 200.0);
    EXPECT_EQ(h.count(), 4u);
}

TEST(AdaptiveHistogramTest, MeanApproximatesSampleMean)
{
    auto calib = exponentialSamples(5, 500, 0.02);
    AdaptiveHistogram h(calib);
    auto data = exponentialSamples(6, 50000, 0.02);
    std::vector<double> all = calib;
    for (double x : data) {
        h.add(x);
        all.push_back(x);
    }
    EXPECT_NEAR(h.mean(), stats::mean(all), stats::mean(all) * 0.02);
}

TEST(AdaptiveHistogramTest, CdfIsMonotone)
{
    auto calib = exponentialSamples(7, 1000, 0.01);
    AdaptiveHistogram h(calib);
    for (double x : exponentialSamples(8, 20000, 0.01))
        h.add(x);
    double prev = -1.0;
    for (double x = 0.0; x < 600.0; x += 10.0) {
        const double c = h.cdf(x);
        EXPECT_GE(c, prev);
        EXPECT_GE(c, 0.0);
        EXPECT_LE(c, 1.0);
        prev = c;
    }
    EXPECT_NEAR(h.cdf(1e9), 1.0, 1e-12);
}

TEST(AdaptiveHistogramTest, MergePreservesMassAndShape)
{
    auto a = exponentialSamples(9, 20000, 0.01);
    auto b = exponentialSamples(10, 20000, 0.01);
    AdaptiveHistogram ha(a);
    AdaptiveHistogram hb(b);
    const auto totalBefore = ha.count() + hb.count();
    ha.merge(hb);
    EXPECT_EQ(ha.count(), totalBefore);
    std::vector<double> all = a;
    all.insert(all.end(), b.begin(), b.end());
    std::sort(all.begin(), all.end());
    const double expected = quantileSorted(all, 0.95);
    EXPECT_NEAR(ha.quantile(0.95), expected, expected * 0.08);
}

TEST(AdaptiveHistogramTest, MergeWidensOnceWithoutSpuriousRebins)
{
    // The bulk merge widens up front to cover the other histogram's
    // range instead of replaying mass sample-by-sample through add()
    // (which parked replayed mass in the overflow batch and could
    // trigger re-bins mid-merge).
    AdaptiveHistogram narrow(0.0, 100.0);
    for (int i = 0; i < 1000; ++i)
        narrow.add(static_cast<double>(i % 100) + 0.5);

    AdaptiveHistogram wide(0.0, 700.0);
    for (int i = 0; i < 1000; ++i)
        wide.add(static_cast<double>(i % 700) + 0.5);

    const auto rebinsBefore = narrow.rebinCount();
    narrow.merge(wide);
    EXPECT_EQ(narrow.count(), 2000u);
    // 100 -> 800 covers wide's top bin midpoint in 3 doublings, all
    // from the single up-front widen.
    EXPECT_EQ(narrow.rebinCount(), rebinsBefore + 3);
    EXPECT_GE(narrow.upperBound(), 700.0);
    // The merged tail is visible, not clamped.
    EXPECT_GT(narrow.quantile(0.99), 600.0);
}

TEST(AdaptiveHistogramTest, MergeIntoWiderKeepsBoundsAndMass)
{
    AdaptiveHistogram wide(0.0, 1000.0);
    for (int i = 0; i < 500; ++i)
        wide.add(static_cast<double>(i) + 0.5);
    AdaptiveHistogram narrow(0.0, 50.0);
    for (int i = 0; i < 200; ++i)
        narrow.add(static_cast<double>(i % 50) + 0.25);

    const auto rebinsBefore = wide.rebinCount();
    const double hiBefore = wide.upperBound();
    wide.merge(narrow);
    EXPECT_EQ(wide.count(), 700u);
    EXPECT_EQ(wide.rebinCount(), rebinsBefore);
    EXPECT_DOUBLE_EQ(wide.upperBound(), hiBefore);
}

TEST(AdaptiveHistogramTest, MergeCarriesPendingOverflowMass)
{
    // Samples parked above the source histogram's range (fewer than
    // its overflow trigger) must still arrive in the destination.
    AdaptiveHistogram::Params params;
    params.overflowTrigger = 64;
    AdaptiveHistogram src(0.0, 100.0, params);
    for (int i = 0; i < 100; ++i)
        src.add(50.0);
    for (int i = 0; i < 10; ++i)
        src.add(250.0); // pending: above hi, below the trigger
    ASSERT_EQ(src.count(), 110u);

    AdaptiveHistogram dst(0.0, 100.0, params);
    for (int i = 0; i < 100; ++i)
        dst.add(10.0);
    dst.merge(src);
    EXPECT_EQ(dst.count(), 210u);
    EXPECT_GE(dst.upperBound(), 250.0);
    EXPECT_GT(dst.quantile(0.99), 200.0);
    EXPECT_NEAR(dst.cdf(1e9), 1.0, 1e-12);
}

TEST(AdaptiveHistogramTest, UnderflowClampsIntoFirstBin)
{
    AdaptiveHistogram h(std::vector<double>{10.0, 20.0});
    h.add(0.1); // below lo = 5.0
    EXPECT_EQ(h.count(), 3u);
    EXPECT_LE(h.quantile(0.0), 10.0);
}

TEST(AdaptiveHistogramTest, ExplicitBoundsConstructor)
{
    AdaptiveHistogram h(0.0, 100.0);
    EXPECT_DOUBLE_EQ(h.lowerBound(), 0.0);
    EXPECT_DOUBLE_EQ(h.upperBound(), 100.0);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i) + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
}

TEST(AdaptiveHistogramTest, EmptyQuantileThrows)
{
    AdaptiveHistogram h(0.0, 10.0);
    EXPECT_THROW(h.quantile(0.5), NumericalError);
}

TEST(StaticHistogramTest, ClampsTailAndUnderestimatesQuantiles)
{
    // The pitfall the paper describes: a histogram calibrated for low
    // load caps the measured tail when load (and latency) grows.
    StaticHistogram h(0.0, 100.0, 100);
    auto data = exponentialSamples(11, 50000, 0.02); // mean 50
    std::vector<double> exact = data;
    for (double x : data)
        h.add(x);
    std::sort(exact.begin(), exact.end());
    const double trueP99 = quantileSorted(exact, 0.99);
    EXPECT_GT(trueP99, 150.0);          // true tail extends past range
    EXPECT_LE(h.quantile(0.99), 100.0); // static histogram caps it
    EXPECT_GT(h.clampedHigh(), 0u);
}

TEST(StaticHistogramTest, AccurateWhenRangeCoversData)
{
    StaticHistogram h(0.0, 1000.0, 2000);
    auto data = exponentialSamples(12, 50000, 0.05);
    std::vector<double> exact = data;
    for (double x : data)
        h.add(x);
    std::sort(exact.begin(), exact.end());
    const double expected = quantileSorted(exact, 0.95);
    EXPECT_NEAR(h.quantile(0.95), expected, expected * 0.05);
}

TEST(StaticHistogramTest, CdfBounds)
{
    StaticHistogram h(0.0, 10.0, 10);
    h.add(5.0);
    EXPECT_DOUBLE_EQ(h.cdf(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(h.cdf(10.0), 1.0);
}

TEST(StaticHistogramTest, RejectsBadConstruction)
{
    EXPECT_THROW(StaticHistogram(0.0, 10.0, 1), ConfigError);
    EXPECT_THROW(StaticHistogram(10.0, 0.0, 10), ConfigError);
}

} // namespace
} // namespace stats
} // namespace treadmill
