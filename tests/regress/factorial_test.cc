/** @file Unit and property tests for the exact factorial fits. */

#include "regress/factorial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/hypothesis.h"
#include "util/error.h"
#include "util/random_variates.h"
#include "util/rng.h"

namespace treadmill {
namespace regress {
namespace {

/** Names "f0", "f1", ... for a k-factor design. */
FactorialDesign
designOf(std::size_t k)
{
    std::vector<std::string> names;
    for (std::size_t f = 0; f < k; ++f)
        names.push_back("f" + std::to_string(f));
    return FactorialDesign(names);
}

/** The level vector of cell @p c in a k-factor design. */
std::vector<double>
levelsOf(std::size_t c, std::size_t k)
{
    std::vector<double> levels(k);
    for (std::size_t f = 0; f < k; ++f)
        levels[f] = (c >> f) & 1 ? 1.0 : 0.0;
    return levels;
}

/** Total pinball loss of predicting each row through designRow. */
double
lossThroughDesign(const FactorialDesign &design,
                  const std::vector<std::vector<double>> &levels,
                  const Vec &y, const Vec &beta, double tau)
{
    QuantRegResult model;
    model.coefficients = beta;
    double loss = 0.0;
    for (std::size_t r = 0; r < y.size(); ++r)
        loss += pinballLoss(tau,
                            y[r] - model.predict(design.designRow(levels[r])));
    return loss;
}

TEST(PinballLossTest, AsymmetricWeights)
{
    EXPECT_NEAR(pinballLoss(0.99, 10.0), 9.9, 1e-12); // underestimate
    EXPECT_NEAR(pinballLoss(0.99, -10.0), 0.1, 1e-12); // overestimate
    EXPECT_DOUBLE_EQ(pinballLoss(0.5, 10.0), 5.0);
    EXPECT_DOUBLE_EQ(pinballLoss(0.5, -10.0), 5.0);
    EXPECT_DOUBLE_EQ(pinballLoss(0.9, 0.0), 0.0);
}

TEST(LowerQuantileTest, TakesTheCeilingOrderStatistic)
{
    const std::vector<double> y{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(lowerQuantile(y, 0.1), 1.0);  // ceil(0.4) = 1
    EXPECT_DOUBLE_EQ(lowerQuantile(y, 0.76), 4.0); // ceil(3.04) = 4
    EXPECT_DOUBLE_EQ(lowerQuantile(y, 0.99), 4.0);
    EXPECT_DOUBLE_EQ(lowerQuantile({7.0}, 0.5), 7.0);
}

TEST(LowerQuantileTest, IntegerRankTakesTheLowerEndOfTheTie)
{
    // n tau = 2 and 3: every value in [x_(2), x_(3)] (resp.
    // [x_(3), x_(4)]) minimizes the loss; the lower end is taken.
    const std::vector<double> y{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(lowerQuantile(y, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(lowerQuantile(y, 0.75), 3.0);
    double atLower = 0.0;
    double atUpper = 0.0;
    for (double v : y) {
        atLower += pinballLoss(0.5, v - 2.0);
        atUpper += pinballLoss(0.5, v - 3.0);
    }
    EXPECT_DOUBLE_EQ(atLower, atUpper);
}

TEST(LowerQuantileTest, RejectsBadInputs)
{
    EXPECT_THROW(lowerQuantile({}, 0.5), NumericalError);
    EXPECT_THROW(lowerQuantile({1.0}, 0.0), NumericalError);
    EXPECT_THROW(lowerQuantile({1.0}, 1.0), NumericalError);
}

TEST(FactorialFitTest, BruteForceLossIsTheMinimum)
{
    // The saturated model can fit each cell at any value, and the
    // pinball loss of a cell is minimized at one of its own points, so
    // the minimum over every joint choice of one point per cell is the
    // global minimum. The closed form, predicted through designRow
    // (so the Möbius inversion is checked too), must attain it.
    Rng rng(2024);
    const double taus[] = {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0 / 3.0};
    for (int trial = 0; trial < 36; ++trial) {
        const std::size_t k = 1 + static_cast<std::size_t>(trial % 3);
        const FactorialDesign design = designOf(k);
        // Integer-valued responses in a third of the trials force ties.
        const bool ties = trial % 3 == 1;

        std::vector<std::vector<double>> levels;
        Vec y;
        std::vector<std::vector<double>> cellValues(design.termCount());
        for (std::size_t c = 0; c < design.termCount(); ++c) {
            const auto runs = 1 + rng.nextBelow(4);
            for (std::uint64_t i = 0; i < runs; ++i) {
                const double v =
                    ties ? static_cast<double>(rng.nextBelow(5))
                         : 100.0 * rng.nextDouble();
                levels.push_back(levelsOf(c, k));
                y.push_back(v);
                cellValues[c].push_back(v);
            }
        }
        // Interleave the rows so grouping by cell is exercised.
        for (std::size_t i = y.size() - 1; i > 0; --i) {
            const auto j = static_cast<std::size_t>(rng.nextBelow(i + 1));
            std::swap(y[i], y[j]);
            std::swap(levels[i], levels[j]);
        }

        for (double tau : taus) {
            // Odometer over one chosen point per cell.
            std::vector<std::size_t> pick(design.termCount(), 0);
            double best = std::numeric_limits<double>::infinity();
            while (true) {
                double loss = 0.0;
                for (std::size_t r = 0; r < y.size(); ++r) {
                    std::size_t cell = 0;
                    for (std::size_t f = 0; f < k; ++f)
                        cell |= levels[r][f] == 1.0 ? std::size_t{1} << f
                                                    : 0;
                    loss += pinballLoss(tau,
                                        y[r] - cellValues[cell][pick[cell]]);
                }
                best = std::min(best, loss);
                std::size_t c = 0;
                while (c < pick.size() && ++pick[c] == cellValues[c].size())
                    pick[c++] = 0;
                if (c == pick.size())
                    break;
            }

            const QuantRegResult fit = fitFactorial(design, levels, y, tau);
            const double viaDesign =
                lossThroughDesign(design, levels, y, fit.coefficients, tau);
            const double tol = 1e-9 * (1.0 + best);
            EXPECT_NEAR(viaDesign, best, tol)
                << "trial " << trial << " tau " << tau;
            EXPECT_NEAR(fit.loss, best, tol)
                << "trial " << trial << " tau " << tau;
        }
    }
}

TEST(FactorialFitTest, RecoversKnownEffects)
{
    // Synthetic 2^2 design: y = 100 + 20 a - 10 b + 5 ab + noise.
    Rng rng(6);
    Normal noise(0.0, 2.0);
    FactorialDesign design({"a", "b"});
    std::vector<std::vector<double>> obs;
    Vec y;
    for (int rep = 0; rep < 200; ++rep) {
        for (int a = 0; a <= 1; ++a) {
            for (int b = 0; b <= 1; ++b) {
                obs.push_back({static_cast<double>(a),
                               static_cast<double>(b)});
                y.push_back(100.0 + 20.0 * a - 10.0 * b + 5.0 * a * b +
                            noise.sample(rng));
            }
        }
    }
    const QuantRegResult fit = fitFactorial(design, obs, y, 0.5);
    ASSERT_EQ(fit.coefficients.size(), 4u);
    EXPECT_DOUBLE_EQ(fit.tau, 0.5);
    EXPECT_NEAR(fit.coefficients[0], 100.0, 0.8); // intercept
    EXPECT_NEAR(fit.coefficients[1], 20.0, 1.0);  // a
    EXPECT_NEAR(fit.coefficients[2], -10.0, 1.0); // b
    EXPECT_NEAR(fit.coefficients[3], 5.0, 1.5);   // a:b
}

TEST(FactorialFitTest, InterceptIsTheBaselineCellQuantile)
{
    // fault_study's reading of the intercept: the all-low cell's own
    // lower quantile, here its largest value at n = 8, tau = 0.95.
    FactorialDesign design({"a", "b"});
    std::vector<std::vector<double>> obs;
    Vec y;
    Vec baseline;
    for (int rep = 0; rep < 8; ++rep) {
        for (std::size_t c = 0; c < 4; ++c) {
            obs.push_back(levelsOf(c, 2));
            y.push_back(100.0 * static_cast<double>(c) +
                        static_cast<double>((3 * rep) % 7));
            if (c == 0)
                baseline.push_back(y.back());
        }
    }
    const QuantRegResult fit = fitFactorial(design, obs, y, 0.95);
    EXPECT_DOUBLE_EQ(fit.coefficients[0],
                     *std::max_element(baseline.begin(), baseline.end()));
}

TEST(FactorialFitTest, TailEffectTracksHeteroscedasticity)
{
    // y = (1 + 4a) E, E ~ Exp(1): Q_tau(y|a) = (1 + 4a)(-ln(1 - tau)),
    // so the tau-coefficient of a grows with tau -- the behaviour mean
    // regression cannot express.
    Rng rng(3);
    Exponential exp(1.0);
    FactorialDesign design({"a"});
    std::vector<std::vector<double>> obs;
    Vec y;
    for (int i = 0; i < 12000; ++i) {
        const double a = i % 2;
        obs.push_back({a});
        y.push_back((1.0 + 4.0 * a) * exp.sample(rng));
    }
    const QuantRegResult fit50 = fitFactorial(design, obs, y, 0.5);
    const QuantRegResult fit95 = fitFactorial(design, obs, y, 0.95);
    EXPECT_NEAR(fit50.coefficients[1], 4.0 * std::log(2.0), 0.25);
    EXPECT_NEAR(fit95.coefficients[1], -4.0 * std::log(0.05), 1.0);
    EXPECT_GT(fit95.coefficients[1], fit50.coefficients[1] * 3.0);
}

TEST(FactorialFitTest, PredictionsIncreaseWithTau)
{
    Rng rng(5);
    Normal noise(0.0, 2.0);
    FactorialDesign design({"a"});
    std::vector<std::vector<double>> obs;
    Vec y;
    for (int i = 0; i < 2000; ++i) {
        const double a = i % 2;
        obs.push_back({a});
        y.push_back(1.0 + 4.5 * a + noise.sample(rng));
    }
    const Vec meanRow{1.0, 0.5};
    double prev = -1e300;
    for (double tau : {0.1, 0.5, 0.9, 0.99}) {
        const double pred =
            fitFactorial(design, obs, y, tau).predict(meanRow);
        EXPECT_GT(pred, prev);
        prev = pred;
    }
}

TEST(FactorialFitTest, LossNoWorseThanTheCellMeans)
{
    Rng rng(4);
    Exponential exp(0.1);
    FactorialDesign design({"a"});
    std::vector<std::vector<double>> obs;
    Vec y;
    for (int i = 0; i < 1000; ++i) {
        obs.push_back({static_cast<double>(i % 2)});
        y.push_back(exp.sample(rng));
    }
    const double tau = 0.9;
    const QuantRegResult fit = fitFactorial(design, obs, y, tau);
    const OlsResult ols = fitFactorialOls(design, obs, y);
    EXPECT_LT(fit.loss,
              lossThroughDesign(design, obs, y, ols.coefficients, tau));
}

class FactorialTauSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(FactorialTauSweep, InterceptMatchesTheoreticalExponential)
{
    const double tau = GetParam();
    Rng rng(42);
    Exponential exp(2.0);
    FactorialDesign design({"a"});
    std::vector<std::vector<double>> obs;
    Vec y;
    for (int i = 0; i < 20000; ++i) {
        obs.push_back({static_cast<double>(i % 2)});
        y.push_back(exp.sample(rng));
    }
    const QuantRegResult fit = fitFactorial(design, obs, y, tau);
    const double theory = -std::log(1.0 - tau) / 2.0;
    EXPECT_NEAR(fit.coefficients[0], theory, theory * 0.08 + 0.005);
}

INSTANTIATE_TEST_SUITE_P(TauGrid, FactorialTauSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9,
                                           0.95, 0.99));

TEST(FactorialFitTest, EmptyCellIsNamedByItsLevels)
{
    FactorialDesign design({"numa", "turbo"});
    const std::vector<std::vector<double>> obs{{0, 0}, {1, 0}, {1, 1}};
    const Vec y{1.0, 2.0, 3.0};
    try {
        fitFactorial(design, obs, y, 0.5);
        FAIL() << "an empty cell must be a ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("{numa=0, turbo=1}"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(fitFactorialOls(design, obs, y), ConfigError);
}

TEST(FactorialFitTest, LevelOtherThanZeroOrOneIsNamed)
{
    FactorialDesign design({"a"});
    const std::vector<std::vector<double>> obs{{0.0}, {1.0}, {0.99}};
    const Vec y{1.0, 2.0, 3.0};
    try {
        fitFactorial(design, obs, y, 0.5);
        FAIL() << "a perturbed level must be a ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("observation 2"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(fitFactorialOls(design, obs, y), ConfigError);
}

TEST(FactorialFitTest, RejectsBadInputs)
{
    FactorialDesign design({"a"});
    const std::vector<std::vector<double>> obs{{0.0}, {1.0}};
    const Vec y{1.0, 2.0};
    EXPECT_THROW(fitFactorial(design, obs, y, 0.0), NumericalError);
    EXPECT_THROW(fitFactorial(design, obs, y, 1.0), NumericalError);
    EXPECT_THROW(fitFactorial(design, obs, Vec{1.0}, 0.5), NumericalError);
    EXPECT_THROW(fitFactorialOls(design, obs, Vec{1.0}), NumericalError);
}

TEST(FactorialOlsTest, UnbalancedTwoByTwoMatchesHandContrasts)
{
    // Cells (a, b): (0,0) {1, 3}, (1,0) {5}, (0,1) {2, 4, 6},
    // (1,1) {10, 12}; means 2, 5, 4, 11.
    FactorialDesign design({"a", "b"});
    const std::vector<std::vector<double>> obs{
        {0, 1}, {0, 0}, {1, 1}, {1, 0}, {0, 1}, {0, 0}, {1, 1}, {0, 1}};
    const Vec y{2.0, 1.0, 10.0, 5.0, 4.0, 3.0, 12.0, 6.0};
    const OlsResult ols = fitFactorialOls(design, obs, y);

    ASSERT_EQ(ols.coefficients.size(), 4u);
    EXPECT_NEAR(ols.coefficients[0], 2.0, 1e-12);             // mu_00
    EXPECT_NEAR(ols.coefficients[1], 5.0 - 2.0, 1e-12);       // a
    EXPECT_NEAR(ols.coefficients[2], 4.0 - 2.0, 1e-12);       // b
    EXPECT_NEAR(ols.coefficients[3], 11.0 - 5 - 4 + 2, 1e-12); // a:b

    // Within-cell RSS 2 + 0 + 8 + 2 = 12 on 8 - 4 dof: sigma^2 = 3.
    const double sigma = std::sqrt(3.0);
    const double se[] = {sigma * std::sqrt(1.0 / 2),
                         sigma * std::sqrt(1.0 / 2 + 1.0),
                         sigma * std::sqrt(1.0 / 2 + 1.0 / 3),
                         sigma * std::sqrt(1.0 / 2 + 1.0 + 1.0 / 3 + 1.0 / 2)};
    for (std::size_t t = 0; t < 4; ++t) {
        EXPECT_NEAR(ols.standardErrors[t], se[t], 1e-12) << "term " << t;
        EXPECT_NEAR(ols.pValues[t],
                    stats::twoSidedPValue(ols.coefficients[t] / se[t]),
                    1e-12)
            << "term " << t;
    }
    // TSS = 335 - 8 * (43 / 8)^2 = 103.875.
    EXPECT_NEAR(ols.rSquared, 1.0 - 12.0 / 103.875, 1e-12);
}

TEST(FactorialOlsTest, SignificanceSeparatesRealAndNullEffects)
{
    // y = 5 + 2 a + noise; b and a:b are null.
    Rng rng(3);
    Normal noise(0.0, 1.0);
    FactorialDesign design({"a", "b"});
    std::vector<std::vector<double>> obs;
    Vec y;
    for (int i = 0; i < 2000; ++i) {
        const double a = i % 2;
        const double b = (i / 2) % 2;
        obs.push_back({a, b});
        y.push_back(5.0 + 2.0 * a + noise.sample(rng));
    }
    const OlsResult ols = fitFactorialOls(design, obs, y);
    EXPECT_NEAR(ols.coefficients[1], 2.0, 0.2);
    EXPECT_LT(ols.pValues[1], 1e-6);
    EXPECT_GT(ols.pValues[2], 0.01);
    EXPECT_GT(ols.rSquared, 0.3);
}

TEST(FactorialOlsTest, OneRunPerCellHasNoResidualVariance)
{
    FactorialDesign design({"a"});
    const OlsResult ols =
        fitFactorialOls(design, {{0.0}, {1.0}}, Vec{3.0, 7.0});
    EXPECT_DOUBLE_EQ(ols.coefficients[1], 4.0);
    EXPECT_DOUBLE_EQ(ols.standardErrors[1], 0.0);
    EXPECT_DOUBLE_EQ(ols.pValues[1], 0.0);
    EXPECT_DOUBLE_EQ(ols.rSquared, 1.0);
}

} // namespace
} // namespace regress
} // namespace treadmill
