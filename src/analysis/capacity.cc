#include "analysis/capacity.h"

#include <cmath>

#include "stats/hypothesis.h"
#include "stats/summary.h"
#include "util/error.h"
#include "util/strings.h"

namespace treadmill {
namespace analysis {

namespace {

/**
 * Two-sided Student-t critical value at 95% confidence, by degrees of
 * freedom. Beyond the table the normal limit applies.
 */
double
tCritical95(std::size_t df)
{
    static const double table[] = {
        0.0,   12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
        2.306, 2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
        2.120, 2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
        2.064, 2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
    if (df == 0)
        return 0.0;
    if (df < sizeof(table) / sizeof(table[0]))
        return table[df];
    return 1.960;
}

} // namespace

void
validateCapacityParams(const CapacityParams &params)
{
    if (!(params.tau > 0.0) || !(params.tau < 1.0))
        throw ConfigError(strprintf(
            "capacity search: tau must lie in (0, 1), got %g",
            params.tau));
    if (!(params.sloUs > 0.0))
        throw ConfigError(strprintf(
            "capacity search: sloUs must be positive, got %g",
            params.sloUs));
    if (!(params.utilizationLow > 0.0))
        throw ConfigError(strprintf(
            "capacity search: utilizationLow must be positive, got %g",
            params.utilizationLow));
    if (!(params.utilizationHigh < 1.0))
        throw ConfigError(strprintf(
            "capacity search: utilizationHigh must be below 1, got %g",
            params.utilizationHigh));
    if (params.utilizationLow >= params.utilizationHigh)
        throw ConfigError(strprintf(
            "capacity search: utilizationLow (%g) must be below "
            "utilizationHigh (%g)",
            params.utilizationLow, params.utilizationHigh));
    if (params.runsPerPoint == 0)
        throw ConfigError(
            "capacity search: runsPerPoint must be nonzero");
    if (params.maxIterations == 0)
        throw ConfigError(
            "capacity search: maxIterations must be nonzero");
}

SloComparison
compareToSlo(const std::vector<double> &perRunQuantileUs, double sloUs,
             double confidence)
{
    if (!(confidence >= 0.5) || !(confidence < 1.0))
        throw ConfigError(strprintf(
            "compareToSlo: confidence must lie in [0.5, 1), got %g",
            confidence));
    SloComparison cmp;
    cmp.runs = perRunQuantileUs.size();
    cmp.mean = stats::mean(perRunQuantileUs);
    if (cmp.runs < 2) {
        cmp.ciLowUs = cmp.ciHighUs = cmp.mean;
        cmp.verdict = SloVerdict::Uncertain;
        return cmp;
    }
    // Scale the tabulated 95% critical value for other confidence
    // levels via the normal-quantile ratio; exact at 0.95, a close
    // approximation elsewhere in the usual 0.8-0.99 range.
    const double sd = stats::stddev(perRunQuantileUs);
    double tcrit = tCritical95(cmp.runs - 1);
    if (confidence != 0.95) {
        const double z95 = 1.959964;
        // Beasley-Springer-Moro-free shortcut: invert the normal CDF
        // by bisection on stats::normalCdf (monotone, cheap).
        const double p = 0.5 + confidence / 2.0;
        double lo = 0.0, hi = 10.0;
        for (int i = 0; i < 60; ++i) {
            const double mid = 0.5 * (lo + hi);
            (stats::normalCdf(mid) < p ? lo : hi) = mid;
        }
        tcrit *= 0.5 * (lo + hi) / z95;
    }
    const double half =
        tcrit * sd / std::sqrt(static_cast<double>(cmp.runs));
    cmp.ciLowUs = cmp.mean - half;
    cmp.ciHighUs = cmp.mean + half;
    if (cmp.ciHighUs <= sloUs)
        cmp.verdict = SloVerdict::Clears;
    else if (cmp.ciLowUs > sloUs)
        cmp.verdict = SloVerdict::Violates;
    else
        cmp.verdict = SloVerdict::Uncertain;
    return cmp;
}

} // namespace analysis
} // namespace treadmill
