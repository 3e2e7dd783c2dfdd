/**
 * @file
 * Declarative fault plans: timed, schedule-driven fault windows.
 *
 * Real production tails are dominated by failure modes a healthy
 * simulated cluster never produces: lossy or degraded links, service
 * freezes (GC, compaction), crash-and-restart cycles, and interrupt
 * storms. A FaultPlan describes such events declaratively -- the same
 * JSON-config style as WorkloadConfig -- so a load test can replay an
 * identical fault schedule run after run. All fault timing is virtual
 * (driven off the EventQueue) and all fault randomness derives from the
 * run seed, so faulted runs stay bit-exact and seed-isolated under
 * parallel execution exactly like healthy ones.
 */

#ifndef TREADMILL_FAULT_PLAN_H_
#define TREADMILL_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/types.h"

namespace treadmill {
namespace fault {

/** The fault classes the injector knows how to apply. */
enum class FaultKind {
    /** Drop packets on matching links with a fixed probability. */
    LinkLoss,
    /** Scale matching links' bandwidth and/or add propagation delay. */
    LinkDegrade,
    /** Freeze the server's request intake (GC/compaction pause). */
    ServerStall,
    /** Crash the server: arriving requests are dropped until restart,
     *  then served with a linearly decaying warm-up penalty. */
    ServerCrash,
    /** NIC interrupt storm: interrupt handling cost multiplies. */
    NicInterruptStorm,
};

/** Canonical JSON name of @p kind ("link_loss", "server_stall", ...). */
const std::string &faultKindName(FaultKind kind);

/** Inverse of faultKindName(); throws ConfigError on unknown names. */
FaultKind faultKindFromName(const std::string &name);

/**
 * One timed fault window.
 *
 * The fault applies at `start` and reverts at `start + duration`.
 * When `repeatCount > 1` the window recurs every `period` (measured
 * start-to-start), modeling periodic pauses such as GC cycles.
 */
struct FaultEvent {
    FaultKind kind = FaultKind::ServerStall;
    SimTime start = 0;
    SimDuration duration = 0;

    /** Substring match against link names ("client0", "server-");
     *  empty matches every link. Link faults only. */
    std::string target;

    /**
     * Cluster runs: the backend shard the fault strikes, for
     * server_stall / server_crash (the shard's service shim) and
     * nic_storm (the shard machine's NIC). -1 targets the front
     * server, the classic single-server hook.
     */
    int backend = -1;

    /** Recurrence: fire `repeatCount` windows, `period` apart. */
    SimDuration period = 0;
    std::uint32_t repeatCount = 1;

    /** @name LinkLoss
     * @{ */
    double lossProbability = 0.0;
    /** @} */

    /** @name LinkDegrade
     * @{ */
    double bandwidthFactor = 1.0; ///< Multiplies link bandwidth (< 1 = slower).
    SimDuration extraLatency = 0; ///< Added one-way propagation.
    /** @} */

    /** @name ServerCrash
     * @{ */
    SimDuration warmup = 0;        ///< Degraded window after restart.
    SimDuration warmupPenalty = 0; ///< Extra delay at restart instant,
                                   ///< decaying linearly to 0 over warmup.
    /** @} */

    /** @name NicInterruptStorm
     * @{ */
    double irqCostFactor = 1.0; ///< Multiplies interrupt-handling cycles.
    /** @} */
};

/**
 * A complete fault schedule for one experiment run.
 *
 * The default-constructed plan is the all-zeros plan: no events, and
 * the experiment harness wires no fault machinery at all, so a run
 * with an empty plan is bit-identical to a build without the fault
 * subsystem.
 */
struct FaultPlan {
    std::vector<FaultEvent> events;

    /** True when no fault will ever be applied. */
    bool empty() const { return events.empty(); }

    /**
     * Parse from a JSON document, e.g.:
     * {"events": [
     *    {"kind": "server_stall", "start_ms": 50, "duration_ms": 3,
     *     "period_ms": 100, "repeat": 20},
     *    {"kind": "link_loss", "target": "client0",
     *     "start_ms": 100, "duration_ms": 40, "loss_probability": 0.2},
     *    {"kind": "link_degrade", "start_ms": 200, "duration_ms": 50,
     *     "bandwidth_factor": 0.25, "extra_latency_us": 150},
     *    {"kind": "server_crash", "start_ms": 300, "duration_ms": 80,
     *     "warmup_ms": 40, "warmup_penalty_us": 400},
     *    {"kind": "nic_storm", "start_ms": 450, "duration_ms": 30,
     *     "irq_cost_factor": 25},
     *    {"kind": "server_stall", "backend": 2, "start_ms": 500,
     *     "duration_ms": 5}
     * ]}
     * Times are simulated milliseconds (fractions allowed). "backend"
     * (default -1 = the front server) aims server faults at one
     * cluster shard.
     *
     * @throws ConfigError on malformed or out-of-range values.
     */
    static FaultPlan fromJson(const json::Value &doc);

    /** Serialize back to the JSON schema fromJson() accepts. */
    json::Value toJson() const;

    /**
     * Validate ranges and reject overlapping windows of the same kind
     * on the same target (an overlap would make revert order, and thus
     * the restored state, ambiguous).
     *
     * @throws ConfigError when inconsistent.
     */
    void validate() const;
};

} // namespace fault
} // namespace treadmill

#endif // TREADMILL_FAULT_PLAN_H_
