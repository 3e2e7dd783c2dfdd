/**
 * @file
 * Exact fits of the saturated 2-level factorial model.
 *
 * The paper's Equation 1 has one free parameter per factorial cell,
 * so every fit here is solved in closed form rather than iterated:
 *
 *  - the quantile-regression estimate (Koenker and Bassett's pinball-
 *    loss minimizer) fits each cell at its own empirical tau-quantile;
 *  - the OLS/ANOVA contrast fits each cell at its mean.
 *
 * Möbius inversion over the subset lattice then turns the 2^k cell
 * values mu into the 2^k term coefficients,
 * beta_S = sum_{T subset of S} (-1)^{|S|-|T|} mu_T, in O(k 2^k).
 *
 * Quantile regression has no distribution-free closed-form
 * covariance, so Table IV's Std. Err and p-value columns come from a
 * bootstrap that resamples runs within each cell: every replicate
 * keeps the full design and refits exactly. p-values use the normal
 * approximation z = estimate / SE.
 */

#ifndef TREADMILL_REGRESS_FACTORIAL_H_
#define TREADMILL_REGRESS_FACTORIAL_H_

#include <cstddef>
#include <vector>

#include "regress/design.h"
#include "util/rng.h"

namespace treadmill {
namespace regress {

/** Pinball (check) loss of residual @p err at quantile @p tau. */
double pinballLoss(double tau, double err);

/**
 * The lower tau-quantile of @p values: the order statistic
 * x_(ceil(n tau)), which minimizes sum_i pinballLoss(tau, x_i - q)
 * over q. When n tau is an integer every value in
 * [x_(n tau), x_(n tau + 1)] minimizes the loss, and the lower end is
 * taken.
 *
 * @throws NumericalError on an empty sample or tau outside (0, 1).
 */
double lowerQuantile(std::vector<double> values, double tau);

/** A quantile fit. */
struct QuantRegResult {
    double tau = 0.5;
    Vec coefficients;
    double loss = 0.0; ///< Total pinball loss at the solution.

    /** Predicted tau-quantile for covariate row @p xRow. */
    double predict(const Vec &xRow) const;
};

/**
 * The exact tau-quantile regression of @p y on the saturated
 * factorial model: each cell's lowerQuantile, Möbius-inverted into
 * term coefficients.
 *
 * @param levels One 0/1 level vector per observation.
 * @throws ConfigError on a level other than 0 or 1 or an empty cell
 *         (FactorialDesign::cellRows); NumericalError on a size
 *         mismatch or tau outside (0, 1).
 */
QuantRegResult fitFactorial(const FactorialDesign &design,
                            const std::vector<std::vector<double>> &levels,
                            const Vec &y, double tau);

/** An OLS/ANOVA fit with classical inference. */
struct OlsResult {
    Vec coefficients;
    /** sigma * sqrt(sum_{T subset of S} 1 / n_T), with sigma^2 the
     *  within-cell residual sum of squares over n - 2^k. */
    Vec standardErrors;
    Vec pValues; ///< Two-sided, normal approximation.
    double rSquared = 0.0;
};

/**
 * Least squares on the saturated factorial model: each cell's mean,
 * Möbius-inverted into term coefficients. This attributes the mean,
 * not the tail -- the ANOVA baseline the paper argues against (S IV-A).
 *
 * @throws as fitFactorial().
 */
OlsResult fitFactorialOls(const FactorialDesign &design,
                          const std::vector<std::vector<double>> &levels,
                          const Vec &y);

/** Point estimate with bootstrap uncertainty for one coefficient. */
struct CoefficientInference {
    double estimate = 0.0;
    double standardError = 0.0;
    double pValue = 1.0;
};

/** Inference for every coefficient of one quantile fit. */
struct QuantRegInference {
    QuantRegResult fit; ///< Fit on the full data.
    std::vector<CoefficientInference> coefficients;
    /** Replicates drawn; every one refits, so this is the number of
     *  refits behind each standard error. */
    std::size_t bootstrapReplicates = 0;
};

/**
 * fitFactorial() plus a within-cell bootstrap: each replicate draws
 * n_c rows with replacement inside every cell c, visiting cells in
 * index order, and refits. The standard error of a term is the
 * spread of its coefficient across replicates.
 *
 * @param replicates Bootstrap resamples (>= 2).
 * @param rng Randomness for resampling.
 * @throws ConfigError on fewer than 2 replicates or a cell with fewer
 *         than 2 runs (its resample cannot vary), and as
 *         fitFactorial().
 */
QuantRegInference
bootstrapFactorial(const FactorialDesign &design,
                   const std::vector<std::vector<double>> &levels,
                   const Vec &y, double tau, std::size_t replicates,
                   Rng &rng);

} // namespace regress
} // namespace treadmill

#endif // TREADMILL_REGRESS_FACTORIAL_H_
