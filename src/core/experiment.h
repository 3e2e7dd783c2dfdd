/**
 * @file
 * The tail-latency measurement procedure (paper S III-B).
 *
 * runExperiment() assembles one complete load test: a configured
 * server machine, a Memcached or mcrouter instance, a cluster of
 * client machines each running one load-tester instance, and the
 * tcpdump-equivalent ground-truth capture at the server NIC. The
 * result exposes per-instance statistics (extract-then-aggregate, the
 * correct procedure) alongside the holistic merge (the biased one),
 * plus the ground truth and, when tracing is on, the per-request spans
 * every latency decomposition is read from.
 *
 * repeatedProcedure() implements the hysteresis-aware outer loop: the
 * same experiment is re-run with fresh run seeds (new placements)
 * until the mean of the per-run metrics converges.
 */

#ifndef TREADMILL_CORE_EXPERIMENT_H_
#define TREADMILL_CORE_EXPERIMENT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/client.h"
#include "core/tester_spec.h"
#include "core/workload.h"
#include "exec/parallel_runner.h"
#include "fault/plan.h"
#include "hw/hardware_config.h"
#include "hw/machine_spec.h"
#include "lb/policy.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "server/mcrouter.h"
#include "server/memcached.h"
#include "stats/convergence.h"
#include "util/json.h"
#include "util/types.h"

namespace treadmill {
namespace core {

/** Which server the experiment drives. The values (0, 1) are hashed
 *  into configDigest, so archived digests depend on them. */
enum class WorkloadKind { Memcached, Mcrouter };

/**
 * Sharded multi-backend cluster behind the router (Mcrouter runs
 * only): the router forwards each routed request through a
 * lb::LoadBalancer onto `backends` Memcached shards, each with its own
 * hw::Machine and fabric links, instead of the modelled lognormal
 * backend delay.
 *
 * backends == 0 (the default) builds none of it: no extra machines,
 * links, metric names, or Rng draws, so a single-backend-era config
 * produces byte-identical output.
 */
struct ClusterParams {
    std::uint32_t backends = 0; ///< 0 = classic modelled-backend path.
    std::uint32_t replication = 1; ///< Replicas per key on the ring.
    /** Racks the backends spread across (contiguous blocks; rack 0
     *  also houses the router, others pay the cross-rack hop). */
    std::uint32_t racks = 1;
    /** Balancer saturation cap per backend; 0 = never queue. */
    std::uint32_t maxInflightPerBackend = 0;
    lb::PolicyKind policy = lb::PolicyKind::Fcfs;
    double edfSlackUs = 1000.0; ///< EDF deadline slack.
    std::uint32_t vnodesPerBackend = 64;
    double backendLinkGbps = 10.0; ///< Fabric link bandwidth.

    /** Rack of backend @p b under the contiguous-block layout. */
    std::uint32_t
    rackOf(std::uint32_t b) const
    {
        return racks <= 1 ? 0
                          : static_cast<std::uint32_t>(
                                (static_cast<std::uint64_t>(b) * racks) /
                                backends);
    }
};

/** Everything needed to run one load-test experiment. */
struct ExperimentParams {
    WorkloadKind kind = WorkloadKind::Memcached;
    WorkloadConfig workload;
    hw::MachineSpec machine;
    hw::HardwareConfig config;
    server::MemcachedParams memcachedParams;
    server::McrouterParams mcrouterParams;
    TesterSpec tester; ///< Defaults to treadmillSpec().

    /**
     * Explicit total request rate; when 0, the rate is derived from
     * targetUtilization and the config's expected service time.
     */
    double requestsPerSecond = 0.0;
    double targetUtilization = 0.70;

    SampleCollector::Params collector;
    /** Connections each instance multiplexes over (open loop). */
    unsigned connectionsPerClientMux = 16;
    /** Place the first client on the remote rack (Fig 2 scenario). */
    bool oneRemoteRackClient = false;

    /** @name Client machine model (per instance)
     * @{
     */
    double clientSendCostUs = 1.0;
    double clientReceiveCostUs = 1.2;
    double clientKernelDelayUs = 30.0;
    /** @} */

    /**
     * Fault schedule for this run (empty by default). An empty plan
     * constructs no shim, injector, or events -- the run is
     * bit-identical to one on a build without the fault subsystem.
     */
    fault::FaultPlan faultPlan;

    /** Client failure handling, shared by every instance (off by
     *  default; see ResiliencePolicy for the zero-cost guarantee). */
    ResiliencePolicy resilience;

    /** Sharded backend tier behind the router (off by default; only
     *  meaningful for WorkloadKind::Mcrouter). */
    ClusterParams cluster;

    /** Run seed: placement identity (hysteresis) + all randomness. */
    std::uint64_t seed = 1;
    /** Simulated-time safety cap. */
    SimDuration deadline = seconds(60);

    /**
     * Request-lifecycle tracing (off by default). Sampling is by
     * completion order, deterministic and Rng-free, so enabling it
     * cannot perturb the run. It records the per-attempt spans that
     * every latency decomposition and trace export reads.
     */
    obs::TraceConfig trace;

    /**
     * Deterministic sim-time telemetry (off by default): periodic
     * snapshots of per-backend gauges -- queue depths, inflight,
     * utilization, pool occupancy, event-queue depth -- sampled on the
     * simulated clock with read-only probes, so enabling it cannot
     * perturb the trajectory either.
     */
    obs::TelemetryConfig telemetry;

    ExperimentParams() { tester = treadmillSpec(); }
};

/** Per-instance view of an experiment. */
struct InstanceReport {
    std::vector<double> rawSamples; ///< Reservoir of measured latencies.
    std::map<double, double> quantiles; ///< From the instance collector.
    double cpuUtilization = 0.0;
    std::uint64_t measured = 0;
    bool reachedTarget = false;
    bool remoteRack = false;
    std::vector<std::uint64_t> outstandingAtSend;
    std::vector<std::pair<std::uint64_t, double>> trajectory;
};

/** Outcome of one experiment run. */
struct ExperimentResult {
    std::vector<InstanceReport> instances;
    /** Ground-truth server-residence latencies from the capture, us. */
    std::vector<double> groundTruthUs;

    double targetRps = 0.0;
    double achievedRps = 0.0;
    double serverUtilization = 0.0;
    std::uint64_t frequencyTransitions = 0;
    SimTime simulatedTime = 0;
    /** True when the simulated-time safety cap fired. */
    bool deadlineHit = false;

    /** @name PacketCapture diagnostics (tcpdump-analogue health)
     * @{
     */
    /** Responses at the server NIC with no matching request. */
    std::uint64_t captureUnmatchedResponses = 0;
    /** Requests still awaiting a response when the run ended. */
    std::size_t captureOutstanding = 0;
    /** @} */

    /** Sampled per-attempt span trees in completion order (empty
     *  unless params.trace.enabled). */
    obs::SpanLog spans;

    /** Telemetry time series (empty unless params.telemetry.enabled). */
    obs::TelemetrySeries telemetry;

    /** Concrete fault windows the injector applied (one annotation per
     *  window; empty when the run had no fault plan). Pass these to
     *  chromeSpanJson() to overlay fault lanes on exported traces. */
    std::vector<obs::TraceAnnotation> faultWindows;

    /** Snapshot of the simulation's metrics registry at run end. */
    json::Value metrics;

    /** @name Cluster tier (empty/zero unless cluster.backends > 0)
     * @{
     */
    /** Requests served per backend shard. */
    std::vector<std::uint64_t> backendServed;
    /** Requests dispatched per backend shard by the balancer. */
    std::vector<std::uint64_t> backendDispatched;
    std::uint64_t lbQueued = 0;     ///< Parked in the dispatch queue.
    std::uint64_t lbUnroutable = 0; ///< Dropped: all replicas down.
    std::uint64_t lbFailovers = 0;  ///< Routed past a down primary.
    /** @} */

    /**
     * The q-quantile aggregated across instances: PerInstance computes
     * each instance's quantile then averages (Treadmill's procedure);
     * Holistic merges every raw sample first (the biased baseline).
     */
    double aggregatedQuantile(double q, AggregationKind kind) const;

    /** All instances' raw samples merged (for CDFs and Fig 2). */
    std::vector<double> mergedSamples() const;

    /** Number of instances that reached their measurement target. */
    std::size_t instancesAtTarget() const;
};

/**
 * Translate the params' utilization target into a total request rate
 * for this config/seed (uses the expected service time at nominal
 * frequency).
 */
double deriveRequestRate(const ExperimentParams &params);

/** Run one complete experiment. */
ExperimentResult runExperiment(const ExperimentParams &params);

/**
 * Run many independent experiments, fanned across hardware threads.
 *
 * Seed-isolation invariant: runExperiment() builds every piece of
 * mutable state it touches -- Simulation, Machine, servers, cluster,
 * collectors, and all Rng streams -- from its own ExperimentParams, so
 * two runs never share mutable state and may execute concurrently.
 * Results are index-addressed (result[i] belongs to runs[i]), never
 * ordered by completion, so the output is bit-exact with the serial
 * loop for any Parallelism setting.
 *
 * @param runs        One ExperimentParams per experiment.
 * @param parallelism Worker knob (default hardware concurrency,
 *                    1 = legacy serial path).
 * @param progress    Optional observer; Progress::workUnits carries
 *                    simulated seconds, so throughput() is the
 *                    achieved sim-time rate.
 */
std::vector<ExperimentResult> runExperiments(
    const std::vector<ExperimentParams> &runs,
    const exec::Parallelism &parallelism = {},
    const exec::ProgressFn &progress = {});

/** Parameters of the hysteresis-aware repeated procedure. */
struct ProcedureParams {
    ExperimentParams base;
    double quantile = 0.99;
    AggregationKind aggregation = AggregationKind::PerInstance;
    std::size_t minRuns = 5;
    std::size_t maxRuns = 30;
    double tolerance = 0.02;
    std::size_t window = 3;
    /** Fan independent runs across threads; results are bit-exact
     *  with the serial path (see runExperiments()). */
    exec::Parallelism parallelism{};
};

/** Outcome of the repeated procedure. */
struct ProcedureResult {
    std::vector<double> perRunMetric; ///< One converged value per run.
    double mean = 0.0;
    double stddev = 0.0;
    std::size_t runs = 0;
    bool converged = false;
};

/**
 * Repeat the experiment with fresh run seeds until the running mean of
 * the per-run metric converges (or maxRuns is reached).
 */
ProcedureResult repeatedProcedure(const ProcedureParams &params);

} // namespace core
} // namespace treadmill

#endif // TREADMILL_CORE_EXPERIMENT_H_
