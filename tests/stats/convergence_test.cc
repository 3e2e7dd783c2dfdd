/** @file Unit tests for running-mean convergence detection. */

#include "stats/convergence.h"

#include <gtest/gtest.h>

#include "stats/summary.h"
#include "util/error.h"
#include "util/random_variates.h"
#include "util/rng.h"

namespace treadmill {
namespace stats {
namespace {

TEST(ConvergenceTest, RejectsBadParameters)
{
    const std::vector<double> values{1.0, 1.0, 1.0, 1.0};
    EXPECT_THROW(meanConverged(values, 0.0, 3), ConfigError);
    EXPECT_THROW(meanConverged(values, -0.1, 3), ConfigError);
    EXPECT_THROW(meanConverged(values, 0.1, 0), ConfigError);
    // Checked even before there are enough values to decide.
    EXPECT_THROW(meanConverged({}, 0.0, 3), ConfigError);
}

TEST(ConvergenceTest, ConstantStreamConverges)
{
    const std::vector<double> values(10, 42.0);
    EXPECT_TRUE(meanConverged(values, 0.02, 3));
    // window + 1 values are the least that can converge.
    EXPECT_FALSE(meanConverged({42.0, 42.0, 42.0}, 0.02, 3));
    EXPECT_TRUE(meanConverged({42.0, 42.0, 42.0, 42.0}, 0.02, 3));
}

TEST(ConvergenceTest, DriftingStreamDoesNotConverge)
{
    std::vector<double> values;
    for (int i = 0; i < 20; ++i)
        values.push_back(100.0 * static_cast<double>(i + 1));
    EXPECT_FALSE(meanConverged(values, 0.01, 3));
}

TEST(ConvergenceTest, NoisyStationaryStreamEventuallyConverges)
{
    Rng rng(1);
    Normal noise(200.0, 20.0);
    std::vector<double> values;
    while (values.size() < 5 || !meanConverged(values, 0.01, 3)) {
        ASSERT_LT(values.size(), 500u);
        values.push_back(noise.sample(rng));
    }
    EXPECT_NEAR(mean(values), 200.0, 15.0);
}

TEST(ConvergenceTest, ZeroMeanStreamConverges)
{
    EXPECT_TRUE(meanConverged(std::vector<double>(6, 0.0), 0.01, 2));
}

} // namespace
} // namespace stats
} // namespace treadmill
