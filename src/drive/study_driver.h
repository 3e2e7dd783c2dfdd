/**
 * @file
 * StudyDriver: the simulate -> persist -> fit pipeline.
 *
 * A factorial study has three stages per run: simulate it, persist it
 * to the run store, and (periodically) refit the factorial models on
 * everything measured so far. Running them strictly in sequence
 * leaves the analysis idle while simulations run and the simulator
 * idle while models fit. StudyDriver overlaps them: simulations fan
 * out on a background thread (exec::ParallelRunner, seed-isolated),
 * each completed run is archived immediately under its plan index, and
 * the caller's thread drains a completion queue performing incremental
 * refits while later runs are still simulating -- fitting run k
 * overlaps simulating run k+1.
 *
 * Determinism: archives are seq-addressed and each run's bytes are a
 * pure function of its plan entry, and the final fit consumes
 * responses in plan order, so the archive and the final models are
 * bit-identical for every Parallelism setting and completion order.
 *
 * StudyDriver is the only factorial sweep-and-fit engine: the paper's
 * 2^4 hardware study is a plan (hardwarePlan) run through it
 * (runAttribution), and the fault and cluster studies are plans too.
 */

#ifndef TREADMILL_DRIVE_STUDY_DRIVER_H_
#define TREADMILL_DRIVE_STUDY_DRIVER_H_

#include <map>
#include <string>
#include <vector>

#include "analysis/attribution.h"
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

/** Controls for a pipelined factorial study. */
struct StudyDriverParams {
    /** Factor names; every StudyRun must carry one level per name. */
    std::vector<std::string> factors;
    /** Quantile-regression controls; `quantiles` also selects which
     *  taus each archived run snapshots. */
    analysis::FactorialFitParams fit;
    core::AggregationKind aggregation =
        core::AggregationKind::PerInstance;
    /** Latency reservoir capacity persisted per run. */
    std::size_t reservoirCapacity = 20000;
    /** Attach tail-provenance rows to each archived run (requires the
     *  plan entries to enable tracing; runs without spans are archived
     *  without provenance columns). When set, provenanceQuantiles must
     *  be nonempty and lie in (0, 1). */
    bool attachProvenance = false;
    std::vector<double> provenanceQuantiles{0.5, 0.99};
    /** Refit the models after every this many newly completed runs
     *  while simulation is still in flight; 0 disables incremental
     *  refits (the final fit always happens). */
    unsigned refitEvery = 0;
    /** Worker knob for the simulation fan-out. */
    exec::Parallelism parallelism{};
    /** Optional observer, called once per completed run with the
     *  run's simulated seconds as work units (exec::ParallelRunner). */
    exec::ProgressFn progress{};
};

/** Outcome of one driven study. */
struct StudyOutcome {
    /** Final models, fitted over all runs in plan order. */
    std::vector<analysis::QuantileModel> models;
    /** tau -> one response per run, plan order (what the fit saw). */
    std::map<double, std::vector<double>> responses;
    std::vector<std::vector<double>> levels;
    /** Each run's metrics-registry snapshot (the JSON the run record
     *  archives: counters, gauges, histograms), plan order. */
    std::vector<std::string> metrics;
    /** Incremental refits that completed while at least one run was
     *  still simulating -- the pipeline's overlap evidence. */
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
     * Execute @p plan. When @p archive is non-null, run i is persisted
     * as seq i the moment it completes (the caller owns finish()).
     * Every plan entry must carry factors().size() levels.
     *
     * @throws ConfigError on a malformed plan; rethrows the first
     *         simulation/persistence failure after workers stop.
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
 * package the outcome as an attribution result: one Observation per
 * run in plan order, and StudyDriver's final fit as the models.
 *
 * @throws NumericalError when the fit fails, e.g. at one rep per
 *         cell, which saturates the 16-term model so that its
 *         bootstrap cannot refit.
 */
analysis::AttributionResult
runAttribution(const analysis::AttributionParams &params);

} // namespace drive
} // namespace treadmill

#endif // TREADMILL_DRIVE_STUDY_DRIVER_H_
