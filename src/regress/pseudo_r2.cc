#include "regress/pseudo_r2.h"

#include <cmath>

#include "regress/factorial.h"
#include "util/error.h"

namespace treadmill {
namespace regress {

double
quantileErrorWeight(double tau, double err)
{
    return err < 0.0 ? (1.0 - tau) : tau;
}

double
pseudoR2(const Vec &observed, const Vec &predicted, double tau)
{
    if (observed.size() != predicted.size())
        throw NumericalError("pseudo-R2 shape mismatch");
    if (observed.empty())
        throw NumericalError("pseudo-R2 of an empty sample");
    if (!(tau > 0.0 && tau < 1.0))
        throw NumericalError("tau must lie strictly in (0, 1)");

    // Best constant model: the minimizer of the weighted absolute
    // error. An interpolated quantile minimizes it only when n tau is
    // an integer, and otherwise overstates the constant model's error.
    const double constant = lowerQuantile(observed, tau);

    double modelError = 0.0;
    double constError = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        const double errModel = observed[i] - predicted[i];
        const double errConst = observed[i] - constant;
        modelError +=
            quantileErrorWeight(tau, errModel) * std::fabs(errModel);
        constError +=
            quantileErrorWeight(tau, errConst) * std::fabs(errConst);
    }
    if (constError == 0.0)
        return modelError == 0.0 ? 1.0 : 0.0;
    return 1.0 - modelError / constError;
}

} // namespace regress
} // namespace treadmill
