#include "stats/hypothesis.h"

#include <algorithm>
#include <cmath>

#include "stats/summary.h"
#include "util/error.h"

namespace treadmill {
namespace stats {

double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double
twoSidedPValue(double z)
{
    return 2.0 * (1.0 - normalCdf(std::fabs(z)));
}

TestResult
permutationTest(const std::vector<double> &a, const std::vector<double> &b,
                std::size_t permutations, Rng &rng,
                const std::function<double(const std::vector<double> &,
                                           const std::vector<double> &)>
                    &statistic)
{
    if (a.empty() || b.empty())
        throw NumericalError("permutation test needs non-empty groups");
    if (permutations == 0)
        throw ConfigError("permutation count must be positive");

    const auto stat =
        statistic
            ? statistic
            : std::function<double(const std::vector<double> &,
                                   const std::vector<double> &)>(
                  [](const std::vector<double> &x,
                     const std::vector<double> &y) {
                      return mean(x) - mean(y);
                  });

    const double observed = stat(a, b);

    std::vector<double> pooled;
    pooled.reserve(a.size() + b.size());
    pooled.insert(pooled.end(), a.begin(), a.end());
    pooled.insert(pooled.end(), b.begin(), b.end());

    std::size_t atLeastAsExtreme = 0;
    std::vector<double> ga(a.size());
    std::vector<double> gb(b.size());
    for (std::size_t p = 0; p < permutations; ++p) {
        // Fisher-Yates shuffle of the pooled labels.
        for (std::size_t i = pooled.size() - 1; i > 0; --i) {
            const auto j =
                static_cast<std::size_t>(rng.nextBelow(i + 1));
            std::swap(pooled[i], pooled[j]);
        }
        std::copy(pooled.begin(),
                  pooled.begin() + static_cast<std::ptrdiff_t>(a.size()),
                  ga.begin());
        std::copy(pooled.begin() + static_cast<std::ptrdiff_t>(a.size()),
                  pooled.end(), gb.begin());
        if (std::fabs(stat(ga, gb)) >= std::fabs(observed))
            ++atLeastAsExtreme;
    }

    TestResult result;
    result.statistic = observed;
    // Add-one smoothing keeps the p-value away from an impossible 0.
    result.pValue = (static_cast<double>(atLeastAsExtreme) + 1.0) /
                    (static_cast<double>(permutations) + 1.0);
    return result;
}

} // namespace stats
} // namespace treadmill
