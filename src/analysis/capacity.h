/**
 * @file
 * Capacity planning against a tail-latency SLO: the search controls
 * and the CI-aware SLO comparison.
 *
 * The paper motivates precise tail measurement with provisioning:
 * "servers are typically acquired in large quantities ... so it is
 * important to choose the best design possible and carefully
 * provision resources" (S I). The capacity search answers the
 * operator's question directly: given a configuration and a
 * P-quantile SLO, what is the highest utilization (and request rate)
 * the machine sustains? drive::CapacityController runs it: a
 * bisection on utilization whose probes each run the full Treadmill
 * procedure over several seeds (hysteresis-aware).
 */

#ifndef TREADMILL_ANALYSIS_CAPACITY_H_
#define TREADMILL_ANALYSIS_CAPACITY_H_

#include <cstdint>
#include <vector>

#include "core/experiment.h"
#include "exec/parallel_for.h"

namespace treadmill {
namespace analysis {

/** Controls for an SLO capacity search. */
struct CapacityParams {
    core::ExperimentParams base;
    /** SLO quantile and bound (e.g., P99 <= 300 us). */
    double tau = 0.99;
    double sloUs = 300.0;
    /** Utilization bracket searched. */
    double utilizationLow = 0.05;
    double utilizationHigh = 0.90;
    /** Bisection iterations (each costs runsPerPoint experiments). */
    unsigned maxIterations = 8;
    /** Runs averaged per probe point (hysteresis). */
    unsigned runsPerPoint = 3;
    std::uint64_t seed = 1;
    /** Fan each probe point's independent runs across threads (the
     *  bisection itself is inherently sequential). */
    exec::Parallelism parallelism{};
};

/**
 * Validate a capacity search configuration up front, naming the
 * offending field: tau must lie in (0, 1), sloUs must be positive,
 * 0 < utilizationLow < utilizationHigh < 1, and runsPerPoint /
 * maxIterations must be nonzero. drive::CapacityController calls it
 * from its constructor.
 *
 * @throws ConfigError naming the invalid field.
 */
void validateCapacityParams(const CapacityParams &params);

/** How a probe point's confidence interval relates to an SLO bound. */
enum class SloVerdict {
    Clears,    ///< CI entirely at or below the bound.
    Violates,  ///< CI entirely above the bound.
    Uncertain, ///< CI straddles the bound (or too few runs).
};

/** CI-aware comparison of one probe point against an SLO. */
struct SloComparison {
    double mean = 0.0;
    double ciLowUs = 0.0;  ///< Lower confidence bound on the mean.
    double ciHighUs = 0.0; ///< Upper confidence bound on the mean.
    std::size_t runs = 0;
    SloVerdict verdict = SloVerdict::Uncertain;
};

/**
 * Compare per-run tau-quantile measurements against an SLO bound with
 * a two-sided Student-t confidence interval on their mean. With fewer
 * than two runs the verdict is always Uncertain (no spread estimate).
 * This is the probe-narrowing criterion of the closed-loop capacity
 * controller: only a clean Clears/Violates lets the search move its
 * bracket without re-probing.
 */
SloComparison compareToSlo(const std::vector<double> &perRunQuantileUs,
                           double sloUs, double confidence = 0.95);

} // namespace analysis
} // namespace treadmill

#endif // TREADMILL_ANALYSIS_CAPACITY_H_
