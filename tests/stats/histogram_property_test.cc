/** @file Property tests for the adaptive histogram: mass conservation,
 *  monotone quantiles, and accuracy under adversarial streams. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "stats/histogram.h"
#include "stats/summary.h"
#include "util/random_variates.h"
#include "util/rng.h"

namespace treadmill {
namespace stats {
namespace {

/** Inverse-CDF draw from the bounded Pareto on [lo, hi], shape alpha:
 *  a heavy tail that stays finite. */
double
boundedPareto(Rng &rng, double alpha, double lo, double hi)
{
    const double u = rng.nextDouble();
    const double la = std::pow(lo, alpha);
    const double ha = std::pow(hi, alpha);
    const double x = -(u * ha - u * la - ha) / (ha * la);
    return std::pow(1.0 / x, 1.0 / alpha);
}

struct StreamCase {
    const char *name;
    std::function<double(Rng &)> draw;
};

class AdaptiveHistogramProperty
    : public ::testing::TestWithParam<int>
{
  protected:
    static std::vector<double>
    makeStream(int kind, std::uint64_t seed, std::size_t n)
    {
        Rng rng(seed);
        std::vector<double> xs;
        xs.reserve(n);
        Exponential exp(0.01);
        LogNormal logn(4.0, 1.0);
        Normal norm(300.0, 40.0);
        for (std::size_t i = 0; i < n; ++i) {
            switch (kind) {
              case 0: xs.push_back(exp.sample(rng)); break;
              case 1: xs.push_back(logn.sample(rng)); break;
              case 2:
                xs.push_back(boundedPareto(rng, 1.3, 10.0, 50000.0));
                break;
              case 3: xs.push_back(5.0 + 495.0 * rng.nextDouble()); break;
              case 4: xs.push_back(std::fabs(norm.sample(rng))); break;
              // Regime shift: light then 30x heavier.
              default:
                xs.push_back(i < n / 2 ? exp.sample(rng)
                                       : 30.0 * exp.sample(rng));
            }
        }
        return xs;
    }
};

TEST_P(AdaptiveHistogramProperty, MassIsConserved)
{
    const auto xs = makeStream(GetParam(), 1, 30000);
    AdaptiveHistogram h(
        std::vector<double>(xs.begin(), xs.begin() + 200));
    for (std::size_t i = 200; i < xs.size(); ++i)
        h.add(xs[i]);
    EXPECT_EQ(h.count(), xs.size());
}

TEST_P(AdaptiveHistogramProperty, QuantilesMonotone)
{
    const auto xs = makeStream(GetParam(), 2, 30000);
    AdaptiveHistogram h(
        std::vector<double>(xs.begin(), xs.begin() + 200));
    for (std::size_t i = 200; i < xs.size(); ++i)
        h.add(xs[i]);
    double prev = -1.0;
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double v = h.quantile(q);
        EXPECT_GE(v, prev) << "q=" << q;
        prev = v;
    }
}

TEST_P(AdaptiveHistogramProperty, TailQuantilesTrackExact)
{
    const auto xs = makeStream(GetParam(), 3, 60000);
    AdaptiveHistogram h(
        std::vector<double>(xs.begin(), xs.begin() + 500));
    for (std::size_t i = 500; i < xs.size(); ++i)
        h.add(xs[i]);

    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const double exact = quantileSorted(sorted, q);
        const double est = h.quantile(q);
        EXPECT_NEAR(est, exact, std::max(1.0, exact * 0.08))
            << "stream " << GetParam() << " q " << q;
    }
}

TEST_P(AdaptiveHistogramProperty, BoundsContainAllMass)
{
    const auto xs = makeStream(GetParam(), 4, 20000);
    AdaptiveHistogram h(
        std::vector<double>(xs.begin(), xs.begin() + 200));
    for (std::size_t i = 200; i < xs.size(); ++i)
        h.add(xs[i]);
    // Every quantile lies within [lowerBound, max sample].
    const double maxSample = *std::max_element(xs.begin(), xs.end());
    EXPECT_GE(h.quantile(0.0), 0.0);
    EXPECT_LE(h.quantile(1.0), std::max(maxSample, h.upperBound()));
}

INSTANTIATE_TEST_SUITE_P(Streams, AdaptiveHistogramProperty,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

} // namespace
} // namespace stats
} // namespace treadmill
