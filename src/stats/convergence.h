/**
 * @file
 * Convergence detection for the repeated-experiment procedure.
 *
 * The paper's measurement procedure repeats the whole experiment until
 * "the mean of the collected measurements has already converged"
 * (S III-B). meanConverged() is that test as a pure predicate over the
 * per-run values so far; drive::repeatRuns applies it (with its own
 * minRuns gate) as the procedure's stop rule.
 */

#ifndef TREADMILL_STATS_CONVERGENCE_H_
#define TREADMILL_STATS_CONVERGENCE_H_

#include <cstddef>
#include <vector>

namespace treadmill {
namespace stats {

/**
 * True once the running mean of @p values has stabilized: over each of
 * the last @p window values, the running mean moved by at most
 * @p tolerance relative to the current mean. A zero current mean
 * counts as converged; fewer than window + 1 values never do.
 *
 * @throws ConfigError when tolerance <= 0 or window == 0.
 */
bool meanConverged(const std::vector<double> &values, double tolerance,
                   std::size_t window);

} // namespace stats
} // namespace treadmill

#endif // TREADMILL_STATS_CONVERGENCE_H_
