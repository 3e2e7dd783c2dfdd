#include "util/random_variates.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "util/error.h"

namespace treadmill {

Exponential::Exponential(double rate) : lambda(rate)
{
    if (!(rate > 0.0))
        throw ConfigError("Exponential rate must be positive");
}

double
Exponential::sample(Rng &rng) const
{
    return -std::log(rng.nextDoublePositive()) / lambda;
}

Normal::Normal(double mean, double stddev) : mu(mean), sigma(stddev)
{
    if (!(stddev >= 0.0))
        throw ConfigError("Normal stddev must be non-negative");
}

double
Normal::sample(Rng &rng)
{
    if (hasSpare) {
        hasSpare = false;
        return mu + sigma * spare;
    }
    // Box-Muller transform.
    const double u1 = rng.nextDoublePositive();
    const double u2 = rng.nextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spare = r * std::sin(theta);
    hasSpare = true;
    return mu + sigma * r * std::cos(theta);
}

LogNormal::LogNormal(double logMean, double logStddev)
    : normal(logMean, logStddev)
{
}

double
LogNormal::sample(Rng &rng)
{
    return std::exp(normal.sample(rng));
}

LogNormal
LogNormal::fromMoments(double mean, double stddev)
{
    if (!(mean > 0.0))
        throw ConfigError("LogNormal mean must be positive");
    const double cv2 = (stddev / mean) * (stddev / mean);
    const double logVar = std::log1p(cv2);
    const double logMean = std::log(mean) - 0.5 * logVar;
    return LogNormal(logMean, std::sqrt(logVar));
}

Bernoulli::Bernoulli(double p_) : p(p_)
{
    if (p_ < 0.0 || p_ > 1.0)
        throw ConfigError("Bernoulli probability must lie in [0, 1]");
}

bool
Bernoulli::sample(Rng &rng) const
{
    return rng.nextDouble() < p;
}

namespace {

/**
 * The generalized harmonic number H_{n,s}, memoized across Zipf
 * constructions: the O(n) pow-per-term sum dominates generator setup
 * when every load-tester instance builds the same popularity model.
 * The summation order is fixed, so the cached value is bit-identical
 * to a fresh computation; the mutex only guards construction (a
 * fan-out builds workloads on several threads), never sampling.
 */
double
zeta(std::uint64_t n, double s)
{
    static std::mutex mu;
    static std::map<std::pair<std::uint64_t, double>, double> cache;
    {
        const std::lock_guard<std::mutex> lock(mu);
        const auto it = cache.find({n, s});
        if (it != cache.end())
            return it->second;
    }
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), s);
    const std::lock_guard<std::mutex> lock(mu);
    cache.emplace(std::make_pair(n, s), sum);
    return sum;
}

} // namespace

Zipf::Zipf(std::uint64_t n_, double s_) : n(n_), s(s_)
{
    if (n_ == 0)
        throw ConfigError(
            "Zipf requires a non-empty support (n >= 1)");
    if (!(s_ > 0.0) || s_ == 1.0)
        throw ConfigError(
            "Zipf skew must be positive and != 1: the Gray et al. "
            "approximation's exponent 1/(1-s) is singular at s = 1");
    zetaN = zeta(n_, s_);
    zeta2 = zeta(std::min<std::uint64_t>(2, n_), s_);
    alpha = 1.0 / (1.0 - s_);
    eta = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - s_)) /
          (1.0 - zeta2 / zetaN);
}

std::uint64_t
Zipf::sample(Rng &rng) const
{
    // Gray et al., "Quickly generating billion-record synthetic databases".
    const double u = rng.nextDouble();
    const double uz = u * zetaN;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, s))
        return 1;
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
    return std::min(rank, n - 1);
}

} // namespace treadmill
