/** @file Unit tests for hypothesis testing utilities. */

#include "stats/hypothesis.h"

#include <gtest/gtest.h>

#include "stats/summary.h"
#include "util/error.h"
#include "util/random_variates.h"

namespace treadmill {
namespace stats {
namespace {

std::vector<double>
normalSamples(std::uint64_t seed, int n, double mean, double sd)
{
    Rng rng(seed);
    Normal dist(mean, sd);
    std::vector<double> xs;
    for (int i = 0; i < n; ++i)
        xs.push_back(dist.sample(rng));
    return xs;
}

TEST(NormalCdfTest, KnownValues)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.959964), 0.975, 1e-5);
    EXPECT_NEAR(normalCdf(-1.959964), 0.025, 1e-5);
    EXPECT_NEAR(normalCdf(3.0), 0.99865, 1e-4);
}

TEST(TwoSidedPValueTest, SymmetricInSign)
{
    EXPECT_DOUBLE_EQ(twoSidedPValue(2.0), twoSidedPValue(-2.0));
    EXPECT_NEAR(twoSidedPValue(1.959964), 0.05, 1e-4);
    EXPECT_NEAR(twoSidedPValue(0.0), 1.0, 1e-12);
}

TEST(PermutationTest, DetectsLargeDifference)
{
    Rng rng(1);
    const auto a = normalSamples(2, 40, 100.0, 5.0);
    const auto b = normalSamples(3, 40, 120.0, 5.0);
    const auto result = permutationTest(a, b, 500, rng);
    EXPECT_LT(result.pValue, 0.01);
    EXPECT_LT(result.statistic, 0.0); // mean(a) - mean(b) < 0
}

TEST(PermutationTest, NoDifferenceRarelyRejects)
{
    // Under the null, p < 0.05 should occur for about 5% of repetitions;
    // check across independent pairs rather than relying on one seed.
    Rng rng(4);
    int rejections = 0;
    for (std::uint64_t trial = 0; trial < 10; ++trial) {
        const auto a = normalSamples(100 + trial, 40, 100.0, 5.0);
        const auto b = normalSamples(200 + trial, 40, 100.0, 5.0);
        if (permutationTest(a, b, 300, rng).pValue < 0.05)
            ++rejections;
    }
    EXPECT_LE(rejections, 3);
}

TEST(PermutationTest, SupportsCustomStatistic)
{
    Rng rng(7);
    // Same means, very different spread: a variance-ratio statistic
    // should reject while the default mean-difference does not.
    const auto a = normalSamples(8, 60, 100.0, 1.0);
    const auto b = normalSamples(9, 60, 100.0, 15.0);
    const std::function<double(const std::vector<double> &,
                               const std::vector<double> &)>
        spread = [](const std::vector<double> &x,
                    const std::vector<double> &y) {
            return stddev(x) - stddev(y);
        };
    const auto result = permutationTest(a, b, 400, rng, spread);
    EXPECT_LT(result.pValue, 0.02);
}

TEST(PermutationTest, RejectsDegenerateInputs)
{
    Rng rng(1);
    EXPECT_THROW(permutationTest({}, {1.0}, 10, rng), NumericalError);
    EXPECT_THROW(permutationTest({1.0}, {}, 10, rng), NumericalError);
    EXPECT_THROW(permutationTest({1.0}, {2.0}, 0, rng), ConfigError);
}

TEST(PermutationTest, PValueIsNeverZero)
{
    Rng rng(10);
    const std::vector<double> a{1.0, 1.1, 0.9};
    const std::vector<double> b{100.0, 101.0, 99.0};
    const auto result = permutationTest(a, b, 200, rng);
    EXPECT_GT(result.pValue, 0.0);
}

} // namespace
} // namespace stats
} // namespace treadmill
