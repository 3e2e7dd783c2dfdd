/** @file Unit tests for the pseudo-R^2 goodness-of-fit metric. */

#include "regress/pseudo_r2.h"

#include <gtest/gtest.h>

#include "regress/factorial.h"
#include "stats/summary.h"
#include "util/error.h"
#include "util/random_variates.h"
#include "util/rng.h"

namespace treadmill {
namespace regress {
namespace {

TEST(ErrorWeightTest, MatchesEquationFour)
{
    EXPECT_NEAR(quantileErrorWeight(0.99, -1.0), 0.01, 1e-12);
    EXPECT_DOUBLE_EQ(quantileErrorWeight(0.99, 1.0), 0.99);
    EXPECT_DOUBLE_EQ(quantileErrorWeight(0.99, 0.0), 0.99);
    EXPECT_DOUBLE_EQ(quantileErrorWeight(0.5, -2.0), 0.5);
}

TEST(PseudoR2Test, PerfectPredictionIsOne)
{
    const Vec y{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(pseudoR2(y, y, 0.9), 1.0);
}

TEST(PseudoR2Test, ConstantQuantilePredictionIsZero)
{
    // Predicting the empirical tau-quantile everywhere equals the
    // best constant model: pseudo-R2 = 0.
    Rng rng(1);
    Exponential exp(1.0);
    Vec y;
    for (int i = 0; i < 2000; ++i)
        y.push_back(exp.sample(rng));
    const double q90 = stats::quantile(y, 0.9);
    const Vec constant(y.size(), q90);
    EXPECT_NEAR(pseudoR2(y, constant, 0.9), 0.0, 1e-9);
}

TEST(PseudoR2Test, BestConstantScoresZeroWhenNTauIsNotAnInteger)
{
    // The best constant is x_(ceil(n tau)); an interpolated quantile
    // would overstate the constant model's loss and score these above
    // 0 (0.495 and 0.231).
    EXPECT_NEAR(pseudoR2(Vec{0.0, 10.0}, Vec(2, 10.0), 0.99), 0.0,
                1e-12);
    EXPECT_NEAR(pseudoR2(Vec{1.0, 2.0, 3.0, 4.0}, Vec(4, 4.0), 0.9),
                0.0, 1e-12);
}

/** Pseudo-R2 of the exact fit of y on one 0/1 factor. */
double
groupFitPseudoR2(const std::vector<double> &group, const Vec &y,
                 double tau)
{
    const FactorialDesign design({"group"});
    std::vector<std::vector<double>> levels;
    for (double g : group)
        levels.push_back({g});
    const QuantRegResult fit = fitFactorial(design, levels, y, tau);
    Vec predicted;
    for (const auto &l : levels)
        predicted.push_back(fit.predict(design.designRow(l)));
    return pseudoR2(y, predicted, tau);
}

TEST(PseudoR2Test, InformativeModelScoresHigh)
{
    // Strong covariate signal: QR fit explains most tail variation.
    Rng rng(2);
    Normal noise(0.0, 1.0);
    std::vector<double> group;
    Vec y;
    for (std::size_t i = 0; i < 2000; ++i) {
        group.push_back(static_cast<double>(i % 2));
        y.push_back(10.0 + 100.0 * group.back() + noise.sample(rng));
    }
    EXPECT_GT(groupFitPseudoR2(group, y, 0.95), 0.9);
}

TEST(PseudoR2Test, UninformativeModelScoresNearZero)
{
    Rng rng(3);
    Normal noise(0.0, 1.0);
    std::vector<double> group;
    Vec y;
    for (std::size_t i = 0; i < 2000; ++i) {
        group.push_back(static_cast<double>(i % 2)); // unrelated to y
        y.push_back(10.0 + noise.sample(rng));
    }
    const double r2 = groupFitPseudoR2(group, y, 0.95);
    // The fit can only beat the best constant: never below 0.
    EXPECT_GE(r2, 0.0);
    EXPECT_LT(r2, 0.1);
}

TEST(PseudoR2Test, WorseThanConstantGoesNegative)
{
    const Vec y{1.0, 2.0, 3.0, 4.0, 5.0};
    const Vec bad(5, 1000.0);
    EXPECT_LT(pseudoR2(y, bad, 0.5), 0.0);
}

TEST(PseudoR2Test, RejectsDegenerateInputs)
{
    EXPECT_THROW(pseudoR2(Vec{}, Vec{}, 0.5), NumericalError);
    EXPECT_THROW(pseudoR2(Vec{1.0}, Vec{1.0, 2.0}, 0.5),
                 NumericalError);
    EXPECT_THROW(pseudoR2(Vec{1.0}, Vec{1.0}, 0.0), NumericalError);
}

} // namespace
} // namespace regress
} // namespace treadmill
