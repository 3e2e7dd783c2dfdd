/**
 * @file
 * The repetition loop (paper S III-B): one configuration re-run with
 * fresh seeds -- fresh placements -- until a stop rule over the
 * per-run values fires. Every fresh-seed repetition runs here: the
 * converged-mean procedure, each capacity probe and the Fig 12 arms,
 * each with its own seed formula in its paramsOf.
 *
 * Runs fan out in waves of parallelism.resolve() runs (with a rule,
 * the first wave is minRuns), but values are consumed in run order and
 * the rule is checked after each one, so runs simulated past the stop
 * -- at most resolve() - 1 per call, none at Parallelism 1 -- are
 * dropped before onRun sees them: the kept values, the onRun calls and
 * anything onRun archives are identical at every Parallelism.
 */

#ifndef TREADMILL_DRIVE_REPEAT_H_
#define TREADMILL_DRIVE_REPEAT_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "core/experiment.h"
#include "exec/parallel_for.h"

namespace treadmill {
namespace drive {

/** True once the kept values (run order) settle the measurement. */
using StopRule = std::function<bool(const std::vector<double> &kept)>;

/** One repeated measurement of a configuration. */
struct Repetitions {
    /** Run k's full experiment, seed included. Called once per
     *  simulated run, discarded ones too, so it must depend only on
     *  k. */
    std::function<core::ExperimentParams(std::size_t k)> paramsOf;
    /** Each kept run yields aggregatedQuantile(tau, aggregation). */
    double tau = 0.99;
    core::AggregationKind aggregation =
        core::AggregationKind::PerInstance;
    /** The rule is first checked once this many runs are kept, and
     *  its first wave is this many runs. In [1, maxRuns]. */
    std::size_t minRuns = 1;
    /** Cap on kept runs (nonzero). */
    std::size_t maxRuns = 1;
    /** Empty: a fixed count of maxRuns runs. */
    StopRule stop;
    exec::Parallelism parallelism{};
};

/** Sees each kept run once, in run order, on the calling thread. */
using RunObserver = std::function<void(
    std::size_t k, const core::ExperimentParams &params,
    const core::ExperimentResult &result)>;

/**
 * Run @p reps until its stop rule fires or maxRuns runs are kept, and
 * return the kept values in run order.
 *
 * @throws ConfigError naming the field when paramsOf is empty,
 *         maxRuns is 0, or minRuns lies outside [1, maxRuns];
 *         rethrows the first simulation or observer failure.
 */
std::vector<double> repeatRuns(const Repetitions &reps,
                               const RunObserver &onRun = {});

} // namespace drive
} // namespace treadmill

#endif // TREADMILL_DRIVE_REPEAT_H_
