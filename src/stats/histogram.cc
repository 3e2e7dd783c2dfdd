#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/logging.h"

namespace treadmill {
namespace stats {

namespace {

constexpr double kMinWidth = 1e-9;

} // namespace

AdaptiveHistogram::AdaptiveHistogram(const std::vector<double> &calibration,
                                     const Params &params_)
    : params(params_)
{
    if (calibration.empty())
        throw NumericalError("adaptive histogram needs calibration samples");
    if (params.binCount < 2)
        throw ConfigError("adaptive histogram needs at least 2 bins");
    const auto [minIt, maxIt] =
        std::minmax_element(calibration.begin(), calibration.end());
    lo = std::max(0.0, *minIt * 0.5);
    const double span =
        std::max(kMinWidth, (*maxIt - lo) * params.calibrationHeadroom);
    width = span / static_cast<double>(params.binCount);
    hi = lo + width * static_cast<double>(params.binCount);
    bins.assign(params.binCount, 0);
    // The parked-overflow buffer holds at most overflowTrigger values
    // before widenToInclude/absorbOverflow drain it, so one up-front
    // reservation covers every widen/merge cycle for the histogram's
    // lifetime -- push_back never reallocates.
    overflowPending.reserve(params.overflowTrigger);
    for (double x : calibration)
        add(x);
}

AdaptiveHistogram::AdaptiveHistogram(double lo_, double hi_,
                                     const Params &params_)
    : params(params_), lo(lo_)
{
    if (params.binCount < 2)
        throw ConfigError("adaptive histogram needs at least 2 bins");
    if (!(hi_ > lo_))
        throw ConfigError("adaptive histogram requires hi > lo");
    width = (hi_ - lo_) / static_cast<double>(params.binCount);
    hi = lo + width * static_cast<double>(params.binCount);
    bins.assign(params.binCount, 0);
    overflowPending.reserve(params.overflowTrigger);
}

// tmlint:hot-path-begin -- the out-of-line half of add(): rare per
// sample, but still inside the measurement loop.
void
AdaptiveHistogram::addSlow(double x)
{
    if (x < lo) {
        // Below-range samples are rare by construction (the calibration
        // lower bound is half the observed minimum); clamp into bin 0.
        ++underflow;
        ++bins[0];
        return;
    }
    if (x >= hi) {
        overflowPending.push_back(x);
        if (overflowPending.size() >= params.overflowTrigger) {
            widenToInclude(
                *std::max_element(overflowPending.begin(),
                                  overflowPending.end()));
            absorbOverflow();
        }
        return;
    }
    // Unordered comparisons (NaN) reach here; keep the historical
    // clamp-into-range behaviour.
    const auto idx = static_cast<std::size_t>((x - lo) / width);
    ++bins[std::min(idx, bins.size() - 1)];
}

void
AdaptiveHistogram::widenToInclude(double x)
{
    while (x >= hi) {
        // Double the bin width: merge adjacent bin pairs exactly.
        const std::size_t half = bins.size() / 2;
        for (std::size_t i = 0; i < half; ++i)
            bins[i] = bins[2 * i] + bins[2 * i + 1];
        if (bins.size() % 2 == 1)
            bins[half] = bins.back();
        std::fill(bins.begin() + static_cast<std::ptrdiff_t>(half) +
                      (bins.size() % 2 == 1 ? 1 : 0),
                  bins.end(), 0);
        width *= 2.0;
        hi = lo + width * static_cast<double>(bins.size());
        ++rebins;
    }
}

void
AdaptiveHistogram::absorbOverflow()
{
    for (double x : overflowPending) {
        TM_ASSERT(x < hi, "overflow sample still out of range after widen");
        const auto idx = static_cast<std::size_t>((x - lo) / width);
        ++bins[std::min(idx, bins.size() - 1)];
    }
    overflowPending.clear();
}
// tmlint:hot-path-end

double
AdaptiveHistogram::quantile(double q) const
{
    if (total == 0)
        throw NumericalError("quantile of an empty histogram");
    if (!(q >= 0.0 && q <= 1.0))
        throw NumericalError("quantile order must lie in [0, 1]");

    // Target the ceil(q * N)-th smallest sample (1-based), matching the
    // empirical quantile definition used at high tails.
    const double target =
        std::max(1.0, std::ceil(q * static_cast<double>(total)));

    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        const std::uint64_t mass = bins[i];
        if (static_cast<double>(cum + mass) >= target && mass > 0) {
            // Linear interpolation inside the bin.
            const double within =
                (target - static_cast<double>(cum)) /
                static_cast<double>(mass);
            return lo + (static_cast<double>(i) + within) * width;
        }
        cum += mass;
    }

    // The target rank falls in the (not yet absorbed) overflow region.
    std::vector<double> pending = overflowPending;
    std::sort(pending.begin(), pending.end());
    const auto rank = static_cast<std::size_t>(target) - cum;
    TM_ASSERT(rank >= 1 && rank <= pending.size(),
              "histogram quantile rank out of range");
    return pending[rank - 1];
}

double
AdaptiveHistogram::cdf(double x) const
{
    if (total == 0)
        return 0.0;
    std::uint64_t below = 0;
    if (x >= hi) {
        for (std::uint64_t mass : bins)
            below += mass;
    } else if (x > lo) {
        const double pos = (x - lo) / width;
        const auto full = static_cast<std::size_t>(pos);
        for (std::size_t i = 0; i < full && i < bins.size(); ++i)
            below += bins[i];
        if (full < bins.size()) {
            const double frac = pos - static_cast<double>(full);
            below += static_cast<std::uint64_t>(
                frac * static_cast<double>(bins[full]));
        }
    }
    for (double v : overflowPending) {
        if (v <= x)
            ++below;
    }
    return static_cast<double>(below) / static_cast<double>(total);
}

double
AdaptiveHistogram::mean() const
{
    if (total == 0)
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        const double mid = lo + (static_cast<double>(i) + 0.5) * width;
        sum += mid * static_cast<double>(bins[i]);
    }
    for (double v : overflowPending)
        sum += v;
    return sum / static_cast<double>(total);
}

void
AdaptiveHistogram::merge(const AdaptiveHistogram &other)
{
    // Each of other's bins lands at its midpoint, as one bulk mass
    // addition. Widening happens at most once, up front, so no
    // overflow batch accumulates mid-merge and re-bins are never
    // triggered by replayed mass.
    double highestMid = lo;
    bool anyMass = false;
    for (std::size_t i = 0; i < other.bins.size(); ++i) {
        if (other.bins[i] == 0)
            continue;
        anyMass = true;
        highestMid =
            other.lo + (static_cast<double>(i) + 0.5) * other.width;
    }
    for (double v : other.overflowPending)
        highestMid = std::max(highestMid, v);
    if ((anyMass || !other.overflowPending.empty()) && highestMid >= hi)
        widenToInclude(highestMid);

    for (std::size_t i = 0; i < other.bins.size(); ++i) {
        const std::uint64_t mass = other.bins[i];
        if (mass == 0)
            continue;
        const double mid =
            other.lo + (static_cast<double>(i) + 0.5) * other.width;
        total += mass;
        if (mid < lo) {
            underflow += mass;
            bins[0] += mass;
            continue;
        }
        const auto idx = static_cast<std::size_t>((mid - lo) / width);
        bins[std::min(idx, bins.size() - 1)] += mass;
    }
    for (double v : other.overflowPending) {
        ++total;
        if (v < lo) {
            ++underflow;
            ++bins[0];
            continue;
        }
        const auto idx = static_cast<std::size_t>((v - lo) / width);
        bins[std::min(idx, bins.size() - 1)] += 1;
    }
}

StaticHistogram::StaticHistogram(double lo_, double hi_,
                                 std::size_t binCount)
    : lo(lo_), hi(hi_)
{
    if (binCount < 2)
        throw ConfigError("static histogram needs at least 2 bins");
    if (!(hi_ > lo_))
        throw ConfigError("static histogram requires hi > lo");
    width = (hi_ - lo_) / static_cast<double>(binCount);
    bins.assign(binCount, 0);
}

// tmlint:hot-path-begin -- clamp path of the biased static design,
// exercised once per out-of-range sample.
void
StaticHistogram::addSlow(double x)
{
    if (x < lo) {
        ++bins[0];
        return;
    }
    if (x >= hi) {
        ++clampedHi;
        ++bins[bins.size() - 1];
        return;
    }
    const auto idx = static_cast<std::size_t>((x - lo) / width);
    ++bins[std::min(idx, bins.size() - 1)];
}
// tmlint:hot-path-end

double
StaticHistogram::quantile(double q) const
{
    if (total == 0)
        throw NumericalError("quantile of an empty histogram");
    if (!(q >= 0.0 && q <= 1.0))
        throw NumericalError("quantile order must lie in [0, 1]");
    const double target =
        std::max(1.0, std::ceil(q * static_cast<double>(total)));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        const std::uint64_t mass = bins[i];
        if (static_cast<double>(cum + mass) >= target && mass > 0) {
            const double within =
                (target - static_cast<double>(cum)) /
                static_cast<double>(mass);
            return lo + (static_cast<double>(i) + within) * width;
        }
        cum += mass;
    }
    return hi;
}

double
StaticHistogram::cdf(double x) const
{
    if (total == 0)
        return 0.0;
    if (x < lo)
        return 0.0;
    if (x >= hi)
        return 1.0;
    std::uint64_t below = 0;
    const double pos = (x - lo) / width;
    const auto full = static_cast<std::size_t>(pos);
    for (std::size_t i = 0; i < full && i < bins.size(); ++i)
        below += bins[i];
    if (full < bins.size()) {
        const double frac = pos - static_cast<double>(full);
        below += static_cast<std::uint64_t>(
            frac * static_cast<double>(bins[full]));
    }
    return static_cast<double>(below) / static_cast<double>(total);
}

} // namespace stats
} // namespace treadmill
