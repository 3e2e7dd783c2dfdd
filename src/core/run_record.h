/**
 * @file
 * ExperimentResult -> store::RunRecord conversion.
 *
 * The run store is plain data below core in the layering DAG; this is
 * the one place simulator results become archive records. The
 * conversion is deterministic: the merged reservoir draws from an Rng
 * derived only from the run seed, quantile snapshots use the
 * per-instance aggregation (the paper's procedure), and the config
 * digest hashes a canonical rendering of every parameter that shapes
 * the run -- so identical (params, seed) produce byte-identical
 * archives.
 */

#ifndef TREADMILL_CORE_RUN_RECORD_H_
#define TREADMILL_CORE_RUN_RECORD_H_

#include <cstdint>
#include <vector>

#include "core/experiment.h"
#include "store/record.h"

namespace treadmill {
namespace core {

/** Controls for the conversion. */
struct RunRecordOptions {
    /** Taus snapshotted into the quantile columns (ascending), each as
     *  the per-instance aggregated quantile. */
    std::vector<double> quantiles{0.5, 0.95, 0.99};
};

/**
 * Stable 64-bit digest of everything that determines a run's
 * distribution *except* its seed: workload kind and rates, hardware
 * factor levels, the tester's clients and control loop, collector
 * sizing and histogram bounds, client costs, the cluster's backends,
 * replication and policy, resilience settings, and every field of
 * every fault event.
 * Trace, telemetry and the collector's trajectory only observe a run
 * and are left out, as are TesterSpec's Table I traits the run never
 * reads. Two ExperimentParams with equal digests and equal seeds
 * produce identical runs.
 */
std::uint64_t configDigest(const ExperimentParams &params);

/**
 * Convert one finished experiment into an archive record.
 *
 * @p factorLevels is the study's canonical level vector for this run
 * (the store keeps levels; factor names live in the study manifest).
 * The caller attaches provenance rows separately when span tracing
 * was enabled (that analysis lives above core).
 */
store::RunRecord toRunRecord(const ExperimentParams &params,
                             const ExperimentResult &result,
                             std::vector<double> factorLevels,
                             const RunRecordOptions &options = {});

} // namespace core
} // namespace treadmill

#endif // TREADMILL_CORE_RUN_RECORD_H_
