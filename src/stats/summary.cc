#include "stats/summary.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/logging.h"

namespace treadmill {
namespace stats {

double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        throw NumericalError("quantile of an empty sample");
    if (!(q >= 0.0 && q <= 1.0))
        throw NumericalError("quantile order must lie in [0, 1]");
    if (sorted.size() == 1)
        return sorted.front();
    // R type-7: h = (n-1) q; interpolate between floor(h) and floor(h)+1.
    const double h = static_cast<double>(sorted.size() - 1) * q;
    const auto lo = static_cast<std::size_t>(h);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = h - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double
quantile(std::vector<double> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    return quantileSorted(samples, q);
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double total = 0.0;
    for (double x : xs)
        total += x;
    return total / static_cast<double>(xs.size());
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    return quantileSorted(xs, 0.5);
}

double
stddev(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double m = mean(xs);
    double m2 = 0.0;
    for (double x : xs)
        m2 += (x - m) * (x - m);
    return std::sqrt(m2 / static_cast<double>(xs.size() - 1));
}

} // namespace stats
} // namespace treadmill
