/** @file Unit tests for the within-cell bootstrap. */

#include "regress/factorial.h"

#include <gtest/gtest.h>

#include "regress/design.h"
#include "util/error.h"
#include "util/random_variates.h"

namespace treadmill {
namespace regress {
namespace {

/** 2^2 factorial data: y = 50 + 10 a + noise, b irrelevant. */
struct FactorialData {
    FactorialDesign design{{"a", "b"}};
    std::vector<std::vector<double>> levels;
    Vec y;
    explicit FactorialData(std::uint64_t seed, int reps = 100)
    {
        Rng rng(seed);
        Normal noise(0.0, 3.0);
        for (int rep = 0; rep < reps; ++rep) {
            for (int a = 0; a <= 1; ++a) {
                for (int b = 0; b <= 1; ++b) {
                    levels.push_back({static_cast<double>(a),
                                      static_cast<double>(b)});
                    y.push_back(50.0 + 10.0 * a + noise.sample(rng));
                }
            }
        }
    }

    QuantRegInference
    bootstrap(double tau, std::size_t replicates, Rng &rng) const
    {
        return bootstrapFactorial(design, levels, y, tau, replicates,
                                  rng);
    }
};

TEST(InferenceTest, SignificantEffectDetected)
{
    FactorialData data(1);
    Rng rng(2);
    const auto inf = data.bootstrap(0.5, 100, rng);
    ASSERT_EQ(inf.coefficients.size(), 4u);
    // Term 1 is "a": estimate ~10, clearly significant.
    EXPECT_NEAR(inf.coefficients[1].estimate, 10.0, 1.5);
    EXPECT_LT(inf.coefficients[1].pValue, 0.01);
    // Term 2 is "b": irrelevant, insignificant.
    EXPECT_GT(inf.coefficients[2].pValue, 0.05);
    EXPECT_NEAR(inf.coefficients[2].estimate, 0.0, 2.0);
}

TEST(InferenceTest, EstimatesAreTheFullDataFit)
{
    FactorialData data(3);
    Rng rng(4);
    const auto inf = data.bootstrap(0.9, 50, rng);
    const QuantRegResult fit =
        fitFactorial(data.design, data.levels, data.y, 0.9);
    EXPECT_EQ(inf.fit.coefficients, fit.coefficients);
    for (std::size_t t = 0; t < 4; ++t)
        EXPECT_EQ(inf.coefficients[t].estimate, fit.coefficients[t]);
    // Every replicate keeps the design, so every one refits.
    EXPECT_EQ(inf.bootstrapReplicates, 50u);
}

TEST(InferenceTest, StandardErrorsArePositiveAndModest)
{
    FactorialData data(3);
    Rng rng(4);
    const auto inf = data.bootstrap(0.5, 100, rng);
    for (const auto &c : inf.coefficients) {
        EXPECT_GT(c.standardError, 0.0);
        EXPECT_LT(c.standardError, 5.0);
    }
}

TEST(InferenceTest, SameSeedSameStandardErrors)
{
    FactorialData data(5);
    Rng a(6);
    Rng b(6);
    const auto first = data.bootstrap(0.5, 60, a);
    const auto second = data.bootstrap(0.5, 60, b);
    for (std::size_t t = 0; t < 4; ++t)
        EXPECT_EQ(first.coefficients[t].standardError,
                  second.coefficients[t].standardError);
}

TEST(InferenceTest, MoreDataShrinksStandardErrors)
{
    FactorialData small(7, 30);
    FactorialData large(7, 300);
    Rng rng(8);
    const auto infSmall = small.bootstrap(0.5, 120, rng);
    const auto infLarge = large.bootstrap(0.5, 120, rng);
    EXPECT_LT(infLarge.coefficients[1].standardError,
              infSmall.coefficients[1].standardError);
}

TEST(InferenceTest, TailQuantileHasLargerUncertainty)
{
    // Paper Finding 2: quantile variance is inversely proportional to
    // density; P99 errors exceed P50 errors.
    FactorialData data(9, 200);
    Rng rng(10);
    const auto inf50 = data.bootstrap(0.5, 120, rng);
    const auto inf99 = data.bootstrap(0.99, 120, rng);
    EXPECT_GT(inf99.coefficients[0].standardError,
              inf50.coefficients[0].standardError);
}

TEST(InferenceTest, RejectsTooFewReplicates)
{
    FactorialData data(11);
    Rng rng(12);
    EXPECT_THROW(data.bootstrap(0.5, 1, rng), ConfigError);
}

TEST(InferenceTest, RejectsAOneRunCell)
{
    // A 1-run cell fits exactly, but its resample cannot vary.
    FactorialData data(13, 2);
    data.levels.pop_back();
    data.y.pop_back();
    Rng rng(14);
    EXPECT_NO_THROW(
        fitFactorial(data.design, data.levels, data.y, 0.5));
    try {
        data.bootstrap(0.5, 20, rng);
        FAIL() << "a 1-run cell must be a ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("{a=1, b=1}"),
                  std::string::npos)
            << e.what();
    }
}

TEST(InferenceTest, FourWayStandardErrorIsCalibrated)
{
    // Planted effects plus N(0, 10) noise on the 2^4 design, 3 runs
    // per cell, tau = 0.5. The 4-way term is a +/-1 contrast of all 16
    // cell medians, so its sampling SE is sqrt(16 * 0.4487 * 10^2) =
    // 26.8 (0.4487 sigma^2 is the variance of the median of 3
    // normals). A bootstrap that resamples rows across cells misses
    // whole cells and inflates this SE about sixfold.
    const FactorialDesign design({"numa", "turbo", "dvfs", "nic"});
    const double analytic = 26.8;
    Rng rng(2016);
    Normal noise(0.0, 10.0);
    double seSum = 0.0;
    const int datasets = 40;
    for (int d = 0; d < datasets; ++d) {
        std::vector<std::vector<double>> levels;
        Vec y;
        for (int rep = 0; rep < 3; ++rep) {
            for (unsigned cell = 0; cell < 16; ++cell) {
                std::vector<double> l(4);
                for (unsigned f = 0; f < 4; ++f)
                    l[f] = (cell >> f) & 1u ? 1.0 : 0.0;
                y.push_back(355.0 + 56.0 * l[0] - 29.0 * l[1] +
                            29.0 * l[3] - 58.0 * l[2] * l[3] +
                            noise.sample(rng));
                levels.push_back(std::move(l));
            }
        }
        const auto inf =
            bootstrapFactorial(design, levels, y, 0.5, 200, rng);
        seSum += inf.coefficients[15].standardError;
    }
    const double meanSe = seSum / datasets;
    EXPECT_GE(meanSe, 0.75 * analytic);
    EXPECT_LE(meanSe, 1.35 * analytic);
}

} // namespace
} // namespace regress
} // namespace treadmill
