/** @file Unit tests for sample quantiles and summary helpers. */

#include "stats/summary.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"
#include "util/random_variates.h"
#include "util/rng.h"

namespace treadmill {
namespace stats {
namespace {

TEST(QuantileTest, MedianOfOddSample)
{
    EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(QuantileTest, InterpolatesBetweenPoints)
{
    // R type-7 on {1,2,3,4}: q=0.5 -> 2.5.
    EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
}

TEST(QuantileTest, ExtremesAreMinMax)
{
    const std::vector<double> xs{5.0, 1.0, 9.0, 3.0};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 9.0);
}

TEST(QuantileTest, SingleElement)
{
    EXPECT_DOUBLE_EQ(quantile({7.0}, 0.99), 7.0);
}

TEST(QuantileTest, RejectsEmptyAndBadOrder)
{
    EXPECT_THROW(quantile({}, 0.5), NumericalError);
    EXPECT_THROW(quantile({1.0}, 1.5), NumericalError);
    EXPECT_THROW(quantile({1.0}, -0.1), NumericalError);
}

TEST(QuantileTest, MonotoneInQ)
{
    Rng rng(2);
    Exponential e(1.0);
    std::vector<double> xs;
    for (int i = 0; i < 1000; ++i)
        xs.push_back(e.sample(rng));
    std::sort(xs.begin(), xs.end());
    double prev = -1.0;
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        const double v = quantileSorted(xs, q);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(QuantileTest, ExponentialQuantilesMatchTheory)
{
    Rng rng(3);
    Exponential e(2.0);
    std::vector<double> xs;
    for (int i = 0; i < 400000; ++i)
        xs.push_back(e.sample(rng));
    std::sort(xs.begin(), xs.end());
    // Q(q) = -ln(1-q)/lambda.
    EXPECT_NEAR(quantileSorted(xs, 0.5), std::log(2.0) / 2.0, 0.01);
    EXPECT_NEAR(quantileSorted(xs, 0.99), -std::log(0.01) / 2.0, 0.1);
}

TEST(HelperTest, MeanMedianStddev)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 100.0};
    EXPECT_DOUBLE_EQ(mean(xs), 22.0);
    EXPECT_DOUBLE_EQ(median(xs), 3.0);
    EXPECT_GT(stddev(xs), 40.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

} // namespace
} // namespace stats
} // namespace treadmill
