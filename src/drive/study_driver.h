/**
 * @file
 * StudyDriver: a factorial study's plan -> archive -> fit.
 *
 * A factorial study is a plan of independent runs (paper S III-B,
 * S V-A). StudyDriver fans the whole plan out once
 * (exec::parallelFor: seed-isolated, each index claimed by the next
 * free lane), reduces each run to its snapshotted per-instance
 * quantiles, archives it under its plan index, and then fits the
 * factorial models once, over every run. A fit takes well under a
 * millisecond, so nothing is gained by overlapping it with simulation.
 *
 * The study's one data set is its plan-order `levels` plus those
 * snapshotted responses: the live fit reads it from the outcome, and
 * analysis::refitFromStore reads the same doubles back from the
 * archive, so a refit equals the live fit by construction.
 *
 * Determinism: archives are seq-addressed, each run's bytes are a pure
 * function of its plan entry, and run i fills only slot i of the
 * outcome, so the archive and the models are bit-identical for every
 * Parallelism setting and completion order.
 *
 * StudyDriver is the only factorial sweep-and-fit engine: the paper's
 * 2^4 hardware study is a plan (hardwarePlan) run through it
 * (runAttribution), and the fault and cluster studies are plans too.
 * The Fig 12 follow-up to that study, evaluateImprovement, repeats
 * runs rather than fitting a plan, so it runs on drive::repeatRuns.
 */

#ifndef TREADMILL_DRIVE_STUDY_DRIVER_H_
#define TREADMILL_DRIVE_STUDY_DRIVER_H_

#include <map>
#include <string>
#include <vector>

#include "analysis/attribution.h"
#include "analysis/recommend.h"
#include "core/experiment.h"
#include "core/run_record.h"
#include "regress/design.h"
#include "store/writer.h"

namespace treadmill {
namespace drive {

/** One planned run: a full experiment plus its factor levels. */
struct StudyRun {
    core::ExperimentParams params;
    /** One 0/1 level per study factor. */
    std::vector<double> levels;
};

/** Controls for a factorial study. */
struct StudyDriverParams {
    /** Factor names; every StudyRun must carry one level per name. */
    std::vector<std::string> factors;
    /** Quantile-regression controls; `quantiles` also selects which
     *  taus each archived run snapshots. */
    analysis::FactorialFitParams fit;
    /** Attach tail-provenance rows to each archived run (requires the
     *  plan entries to enable tracing; runs without spans are archived
     *  without provenance columns). When set, provenanceQuantiles must
     *  be nonempty and lie in (0, 1). */
    bool attachProvenance = false;
    std::vector<double> provenanceQuantiles{0.5, 0.99};
    /** Has no effect: the study fits once, after its last run. Kept
     *  only because perfbench/study_bench.cc still sets it. */
    unsigned refitEvery = 0;
    /** Worker knob for the simulation fan-out. */
    exec::Parallelism parallelism{};
    /** Optional observer, called once per completed run with the
     *  run's simulated seconds as work units (exec::ProgressMeter). */
    exec::ProgressFn progress{};
};

/** Outcome of one driven study. */
struct StudyOutcome {
    /** The models, fitted once over all runs in plan order. */
    std::vector<analysis::QuantileModel> models;
    /** tau -> each run's snapshotted per-instance response, plan
     *  order: the exact doubles the fit saw and the archive holds. */
    std::map<double, std::vector<double>> responses;
    /** Each run's factor levels, plan order. */
    std::vector<std::vector<double>> levels;
    /** Each run's metrics-registry snapshot (the JSON the run record
     *  archives: counters, gauges, histograms), plan order. */
    std::vector<std::string> metrics;
    /** Always 0: no fit overlaps simulation. Kept only because
     *  perfbench/study_bench.cc still reports it. */
    unsigned refitsOverlapped = 0;
    std::size_t runs = 0;
};

class StudyDriver
{
  public:
    /** @throws ConfigError on an invalid factor list (empty or more
     *  than regress::FactorialDesign accepts) or quantiles. */
    explicit StudyDriver(StudyDriverParams params);

    /**
     * Execute @p plan, then fit. When @p archive is non-null, run i is
     * persisted as seq i the moment it completes (the caller owns
     * finish()). Every plan entry must carry factors().size() levels.
     * Every lane has joined when this returns or throws.
     *
     * @throws ConfigError on a malformed plan; rethrows the first
     *         simulation/persistence failure after the lanes join.
     */
    StudyOutcome run(const std::vector<StudyRun> &plan,
                     store::StudyWriter *archive = nullptr);

    const StudyDriverParams &params() const { return controls; }

  private:
    StudyDriverParams controls;
    regress::FactorialDesign design;
};

/**
 * The paper's 2^4 hardware study as a plan (S IV-V): repsPerConfig
 * copies of each of the 16 {numa, turbo, dvfs, nic} cells in a
 * seeded random order, every run at the request rate derived once
 * from `base`, with run seeds depending only on the plan index.
 *
 * @throws ConfigError when repsPerConfig is 0.
 */
std::vector<StudyRun> hardwarePlan(const analysis::AttributionParams &params);

/**
 * Run hardwarePlan(@p params) through a StudyDriver (no archive) and
 * package the outcome as an attribution result: the plan-order levels
 * and responses, and StudyDriver's fit as the models.
 *
 * @throws ConfigError when repsPerConfig is below 2: a cell with one
 *         run fits exactly, but its within-cell bootstrap resample
 *         cannot vary, so its standard errors are undefined.
 */
analysis::AttributionResult
runAttribution(const analysis::AttributionParams &params);

/**
 * The Fig 12 protocol against a fitted attribution model: runsPerArm
 * runs under random configurations ("before"), then as many under the
 * model's best one for params.tau ("after"), each arm a fixed-count
 * repeatRuns at the default Parallelism.
 *
 * @throws ConfigError when runsPerArm is 0.
 */
analysis::ImprovementResult
evaluateImprovement(const analysis::AttributionResult &attribution,
                    const analysis::ImprovementParams &params);

} // namespace drive
} // namespace treadmill

#endif // TREADMILL_DRIVE_STUDY_DRIVER_H_
