#include "stats/convergence.h"

#include <cmath>

#include "util/error.h"

namespace treadmill {
namespace stats {

bool
meanConverged(const std::vector<double> &values, double tolerance,
              std::size_t window)
{
    if (!(tolerance > 0.0))
        throw ConfigError("meanConverged: tolerance must be positive");
    if (window == 0)
        throw ConfigError("meanConverged: window must be positive");
    if (values.size() < window + 1)
        return false;

    // Running mean after each value, summed in the order stats::mean
    // sums, so each entry equals stats::mean of that prefix exactly.
    std::vector<double> means;
    means.reserve(values.size());
    double total = 0.0;
    for (double v : values) {
        total += v;
        means.push_back(total / static_cast<double>(means.size() + 1));
    }
    const double current = means.back();
    if (current == 0.0)
        return true;
    for (std::size_t i = means.size() - window; i < means.size(); ++i) {
        const double change =
            std::fabs(means[i] - means[i - 1]) / std::fabs(current);
        if (change > tolerance)
            return false;
    }
    return true;
}

} // namespace stats
} // namespace treadmill
