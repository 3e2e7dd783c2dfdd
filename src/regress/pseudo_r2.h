/**
 * @file
 * Goodness-of-fit for quantile regression: the paper's pseudo-R^2.
 *
 * Implements Equations 2-4 exactly: the weighted absolute prediction
 * error of the fitted model, normalized by the error of the best
 * constant model (lowerQuantile of y, the pinball-loss minimizer the
 * factorial fit uses too). 1 means a perfect fit; 0 means the
 * covariates explain nothing beyond a constant.
 */

#ifndef TREADMILL_REGRESS_PSEUDO_R2_H_
#define TREADMILL_REGRESS_PSEUDO_R2_H_

#include "regress/design.h"

namespace treadmill {
namespace regress {

/**
 * Pseudo-R^2 of predictions against observations at quantile tau
 * (Equation 2). @p predicted and @p observed must be the same size.
 */
double pseudoR2(const Vec &observed, const Vec &predicted, double tau);

} // namespace regress
} // namespace treadmill

#endif // TREADMILL_REGRESS_PSEUDO_R2_H_
