/**
 * @file
 * Hypothesis tests used for factor screening and inference.
 *
 * The paper screens candidate factors with null-hypothesis testing over
 * repeated experiments under random factor permutations (S IV-B), and
 * reports p-values for regression coefficients (Table IV). We provide a
 * permutation test (distribution-free, matching the paper's setting)
 * and normal-distribution helpers.
 */

#ifndef TREADMILL_STATS_HYPOTHESIS_H_
#define TREADMILL_STATS_HYPOTHESIS_H_

#include <functional>
#include <vector>

#include "util/rng.h"

namespace treadmill {
namespace stats {

/** Standard normal cumulative distribution function. */
double normalCdf(double z);

/** Two-sided p-value for a z-statistic under the standard normal. */
double twoSidedPValue(double z);

/** Result of a two-sample test. */
struct TestResult {
    double statistic = 0.0; ///< Observed test statistic.
    double pValue = 1.0;    ///< Two-sided p-value.
};

/**
 * Two-sample permutation test on an arbitrary statistic.
 *
 * @param a First group.
 * @param b Second group.
 * @param statistic Maps (groupA, groupB) to the test statistic; the
 *        default (empty) uses the difference in means.
 * @param permutations Number of random label permutations.
 */
TestResult
permutationTest(const std::vector<double> &a, const std::vector<double> &b,
                std::size_t permutations, Rng &rng,
                const std::function<double(const std::vector<double> &,
                                           const std::vector<double> &)>
                    &statistic = {});

} // namespace stats
} // namespace treadmill

#endif // TREADMILL_STATS_HYPOTHESIS_H_
