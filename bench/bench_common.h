/**
 * @file
 * Shared scaffolding for the table/figure reproduction benches.
 *
 * Every bench binary regenerates one table or figure of the paper as
 * text. Default sizing keeps the full suite runnable on a laptop in
 * minutes; setting TREADMILL_PAPER_SCALE=1 in the environment bumps
 * sample counts and repetitions to the paper's own scale (>= 30 reps
 * per factorial cell, 20k sub-samples per experiment).
 */

#ifndef TREADMILL_BENCH_BENCH_COMMON_H_
#define TREADMILL_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/experiment.h"
#include "drive/study_driver.h"
#include "exec/progress.h"

namespace treadmill {
namespace bench {

/** True when TREADMILL_PAPER_SCALE=1 (full-scale reproduction). */
inline bool
paperScale()
{
    const char *env = std::getenv("TREADMILL_PAPER_SCALE");
    return env != nullptr && std::string(env) == "1";
}

/** Heading printed by every bench. */
inline void
banner(const char *what, const char *paperRef)
{
    std::printf("==============================================================\n");
    std::printf("Treadmill reproduction: %s\n", what);
    std::printf("Paper reference: %s\n", paperRef);
    std::printf("Scale: %s (set TREADMILL_PAPER_SCALE=1 for full scale)\n",
                paperScale() ? "paper" : "quick");
    std::printf("==============================================================\n\n");
}

/** Standard experiment template used by the measurement figures. */
inline core::ExperimentParams
defaultExperiment(double utilization)
{
    core::ExperimentParams params;
    params.targetUtilization = utilization;
    params.collector.warmUpSamples = 400;
    params.collector.calibrationSamples = 400;
    params.collector.measurementSamples =
        paperScale() ? 20000 : 5000;
    params.seed = 1234;
    return params;
}

/** Standard attribution template used by the Table IV family (run
 *  with drive::runAttribution). */
inline analysis::AttributionParams
defaultAttribution(double utilization)
{
    analysis::AttributionParams params;
    params.base = defaultExperiment(utilization);
    params.base.collector.measurementSamples =
        paperScale() ? 20000 : 6000;
    params.repsPerConfig = paperScale() ? 30 : 8;
    params.bootstrapReplicates = paperScale() ? 300 : 120;
    params.seed = 77;
    return params;
}

/** The paper's "low load" and "high load" utilization levels. */
inline double lowLoad() { return 0.15; }
inline double highLoad() { return 0.65; }

/**
 * Progress reporter for parallel experiment sweeps: overwrites one
 * status line with runs completed / total, wall-clock, and the
 * achieved simulated-seconds-per-second throughput.
 */
inline exec::ProgressFn
sweepProgress()
{
    return [](const exec::Progress &p) {
        if (p.completed % 8 != 0 && p.completed != p.total)
            return;
        std::printf("\r  %zu/%zu experiments  %.1f s wall  "
                    "%.1f sim-s/s   ",
                    p.completed, p.total, p.wallSeconds,
                    p.throughput());
        if (p.completed == p.total)
            std::printf("\n");
        std::fflush(stdout);
    };
}

} // namespace bench
} // namespace treadmill

#endif // TREADMILL_BENCH_BENCH_COMMON_H_
