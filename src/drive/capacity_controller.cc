#include "drive/capacity_controller.h"

#include <algorithm>

#include "core/run_record.h"
#include "drive/repeat.h"
#include "util/error.h"
#include "util/strings.h"

namespace treadmill {
namespace drive {

CapacityController::CapacityController(CapacityControllerParams params)
    : controls(std::move(params))
{
    analysis::validateCapacityParams(controls.search);
    if (controls.maxRunsPerProbe < controls.search.runsPerPoint)
        throw ConfigError(strprintf(
            "capacity controller: maxRunsPerProbe (%u) must be at "
            "least runsPerPoint (%u)",
            controls.maxRunsPerProbe, controls.search.runsPerPoint));
    if (!(controls.confidence >= 0.5) ||
        !(controls.confidence < 1.0))
        throw ConfigError(strprintf(
            "capacity controller: confidence must lie in [0.5, 1), "
            "got %g",
            controls.confidence));
    if (!(controls.utilizationTolerance > 0.0))
        throw ConfigError(strprintf(
            "capacity controller: utilizationTolerance must be "
            "positive, got %g",
            controls.utilizationTolerance));
}

ProbeOutcome
CapacityController::probe(double utilization, unsigned probeIndex,
                          store::StudyWriter *archive,
                          unsigned &nextArchiveSeq)
{
    const analysis::CapacityParams &search = controls.search;
    ProbeOutcome outcome;
    outcome.utilization = utilization;

    core::RunRecordOptions opts;
    opts.quantiles = {0.5, search.tau};
    std::sort(opts.quantiles.begin(), opts.quantiles.end());
    opts.quantiles.erase(
        std::unique(opts.quantiles.begin(), opts.quantiles.end()),
        opts.quantiles.end());

    // runsPerPoint fresh seeds first, then more (each a new placement
    // -- the paper's hysteresis procedure) while the CI straddles the
    // bound.
    Repetitions reps;
    reps.paramsOf = [&](std::size_t k) {
        core::ExperimentParams p = search.base;
        p.targetUtilization = utilization;
        p.requestsPerSecond = 0.0; // derive from utilization
        p.seed = search.seed * 6151 +
                 static_cast<std::uint64_t>(probeIndex) * 24593 +
                 k * 131 + 7;
        return p;
    };
    reps.tau = search.tau;
    reps.minRuns = search.runsPerPoint;
    reps.maxRuns = controls.maxRunsPerProbe;
    reps.stop = [&](const std::vector<double> &kept) {
        return analysis::compareToSlo(kept, search.sloUs,
                                      controls.confidence)
                   .verdict != analysis::SloVerdict::Uncertain;
    };
    reps.parallelism = search.parallelism;
    outcome.perRunQuantileUs = repeatRuns(
        reps, [&](std::size_t, const core::ExperimentParams &params,
                  const core::ExperimentResult &result) {
            outcome.requestsPerSecond = result.targetRps;
            if (archive != nullptr)
                archive->writeRun(nextArchiveSeq++,
                                  core::toRunRecord(params, result,
                                                    {utilization}, opts));
        });

    outcome.comparison = analysis::compareToSlo(
        outcome.perRunQuantileUs, search.sloUs, controls.confidence);
    if (outcome.comparison.verdict != analysis::SloVerdict::Uncertain) {
        outcome.earlyExit =
            outcome.perRunQuantileUs.size() < controls.maxRunsPerProbe;
        outcome.meetsSlo = outcome.comparison.verdict ==
                           analysis::SloVerdict::Clears;
    } else {
        // Budget exhausted with the CI still straddling the bound:
        // fall back to the mean, verdict stays Uncertain.
        outcome.meetsSlo = outcome.comparison.mean <= search.sloUs;
    }
    return outcome;
}

CapacitySearchResult
CapacityController::search(store::StudyWriter *archive)
{
    const analysis::CapacityParams &params = controls.search;
    CapacitySearchResult result;
    result.fixedPlannerRuns =
        (2 + params.maxIterations) * params.runsPerPoint;
    unsigned nextSeq = 0;
    unsigned probeIndex = 0;

    const auto runProbe = [&](double utilization) {
        ProbeOutcome outcome =
            probe(utilization, probeIndex++, archive, nextSeq);
        result.totalRuns += static_cast<unsigned>(
            outcome.perRunQuantileUs.size());
        result.probes.push_back(outcome);
        return outcome;
    };

    // Establish the bracket.
    const ProbeOutcome low = runProbe(params.utilizationLow);
    if (!low.meetsSlo) {
        result.infeasible = true;
        return result;
    }
    const ProbeOutcome high = runProbe(params.utilizationHigh);
    if (high.meetsSlo) {
        result.maxUtilization = high.utilization;
        result.maxRequestsPerSecond = high.requestsPerSecond;
        result.latencyAtMaxUs = high.comparison.mean;
        result.converged = true;
        return result;
    }

    // Narrow: invariant low meets the SLO, high does not.
    ProbeOutcome best = low;
    double lo = params.utilizationLow;
    double hi = params.utilizationHigh;
    for (unsigned it = 0; it < params.maxIterations; ++it) {
        if (hi - lo <= controls.utilizationTolerance) {
            result.converged = true;
            break;
        }
        const double mid = 0.5 * (lo + hi);
        const ProbeOutcome point = runProbe(mid);
        if (point.meetsSlo) {
            best = point;
            lo = mid;
        } else {
            hi = mid;
        }
    }
    if (hi - lo <= controls.utilizationTolerance)
        result.converged = true;

    result.maxUtilization = best.utilization;
    result.maxRequestsPerSecond = best.requestsPerSecond;
    result.latencyAtMaxUs = best.comparison.mean;
    return result;
}

} // namespace drive
} // namespace treadmill
