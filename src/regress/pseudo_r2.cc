#include "regress/pseudo_r2.h"

#include "regress/factorial.h"
#include "util/error.h"

namespace treadmill {
namespace regress {

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

    // Equation 4's weighted absolute error is the pinball loss: weight
    // (1 - tau) on overestimates (err < 0), tau on underestimates.
    double modelError = 0.0;
    double constError = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        modelError += pinballLoss(tau, observed[i] - predicted[i]);
        constError += pinballLoss(tau, observed[i] - constant);
    }
    if (constError == 0.0)
        return modelError == 0.0 ? 1.0 : 0.0;
    return 1.0 - modelError / constError;
}

} // namespace regress
} // namespace treadmill
