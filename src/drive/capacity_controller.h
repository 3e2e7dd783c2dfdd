/**
 * @file
 * Closed-loop SLO capacity search over live runs.
 *
 * A fixed-bracket bisection with a fixed number of runs per probe
 * burns (2 + 8) x 3 = 30 runs no matter how obvious each probe's
 * answer is. CapacityController keeps the bisection skeleton but makes
 * each probe adaptive, per the paper's repeated-experiment procedure
 * and DiPerF's closed-loop envelope extraction (PAPERS.md):
 *
 *  - every probe starts with minRunsPerProbe fresh-seeded runs and
 *    compares the per-run tau-quantiles against the SLO with a
 *    Student-t confidence interval (analysis::compareToSlo);
 *  - if the CI cleanly clears or violates the bound the probe stops
 *    early -- no budget wasted confirming the obvious;
 *  - if the CI straddles the bound, the point is re-probed with
 *    another fresh seed (hysteresis: new placement, same load) until
 *    the band resolves or maxRunsPerProbe is reached;
 *  - the bracket only narrows on a resolved verdict or an exhausted
 *    probe, and the search stops once the bracket is narrower than
 *    utilizationTolerance -- tight SLOs resolve in fewer probes than
 *    a fixed iteration count would spend.
 *
 * The fixed bisection is a setting of the same search:
 * maxRunsPerProbe == runsPerPoint gives every probe exactly
 * runsPerPoint runs, no early exit and no re-probe, and its verdict is
 * exactly mean <= sloUs; with a tolerance the bracket never narrows
 * below, it probes 2 + maxIterations points.
 *
 * Every run can be persisted to a run store archive as it completes,
 * so the whole search is re-analyzable from disk afterwards.
 */

#ifndef TREADMILL_DRIVE_CAPACITY_CONTROLLER_H_
#define TREADMILL_DRIVE_CAPACITY_CONTROLLER_H_

#include <cstdint>
#include <vector>

#include "analysis/capacity.h"
#include "core/experiment.h"
#include "store/writer.h"

namespace treadmill {
namespace drive {

/** Controls for the adaptive search. */
struct CapacityControllerParams {
    /** Bracket, SLO, tau, base experiment, seed, and parallelism
     *  (validated by analysis::validateCapacityParams). runsPerPoint
     *  is the *floor* runs per probe; maxIterations caps
     *  bracket-narrowing steps. */
    analysis::CapacityParams search;
    /** Ceiling on fresh-seed re-probes of an uncertain point; equal to
     *  search.runsPerPoint it is the fixed bisection. */
    unsigned maxRunsPerProbe = 6;
    /** Confidence level of the probe CI. */
    double confidence = 0.95;
    /** Stop once the bracket is narrower than this. */
    double utilizationTolerance = 0.02;
};

/** One adaptively probed operating point. */
struct ProbeOutcome {
    double utilization = 0.0;
    double requestsPerSecond = 0.0;
    std::vector<double> perRunQuantileUs;
    analysis::SloComparison comparison;
    /** True when the CI resolved before maxRunsPerProbe. */
    bool earlyExit = false;
    /** True when the probe point satisfies the SLO (by CI verdict,
     *  falling back to the mean when the budget ran out). */
    bool meetsSlo = false;
};

/** Outcome of the closed-loop search. */
struct CapacitySearchResult {
    double maxUtilization = 0.0;
    double maxRequestsPerSecond = 0.0;
    double latencyAtMaxUs = 0.0;
    bool infeasible = false;
    /** True when the bracket narrowed below tolerance (as opposed to
     *  running out of iterations). */
    bool converged = false;
    /** Total experiments simulated across all probes. */
    unsigned totalRuns = 0;
    /** Runs the fixed bisection (maxRunsPerProbe == runsPerPoint)
     *  spends when it runs every iteration: (2 bracket probes +
     *  maxIterations) * runsPerPoint. */
    unsigned fixedPlannerRuns = 0;
    std::vector<ProbeOutcome> probes;
};

class CapacityController
{
  public:
    /** @throws ConfigError naming any invalid field. */
    explicit CapacityController(CapacityControllerParams params);

    /**
     * Run the adaptive search. When @p archive is non-null every
     * simulated run is persisted as it completes (factor
     * "utilization", level = the probe's utilization); the caller
     * owns finish().
     */
    CapacitySearchResult search(store::StudyWriter *archive = nullptr);

    const CapacityControllerParams &params() const { return controls; }

  private:
    ProbeOutcome probe(double utilization, unsigned probeIndex,
                       store::StudyWriter *archive,
                       unsigned &nextArchiveSeq);

    CapacityControllerParams controls;
};

} // namespace drive
} // namespace treadmill

#endif // TREADMILL_DRIVE_CAPACITY_CONTROLLER_H_
