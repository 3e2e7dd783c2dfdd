/**
 * @file
 * The load-balancer tier: a first-class component between the router
 * and the backend shards.
 *
 * The balancer is itself a server::Service, so anything that can talk
 * to a server can talk to a cluster: it hashes each request's key onto
 * the consistent-hash ring, collects the key's replica set, filters
 * out crashed backends (failover), and lets the configured
 * SchedulingPolicy pick the destination. When every replica is
 * saturated (maxInflightPerBackend) the request parks in the dispatch
 * queue, ordered by the policy's priority -- this queue is exactly the
 * "LB queueing" term the attribution studies separate from "backend N
 * got slow".
 *
 * The balancer never touches packets or machines itself: each backend
 * is an opaque forward hook (typically: uplink -> backend service)
 * plus an optional health probe, and the wiring reports each answer
 * back by shard id (backendAnswered), so the lb module stays below
 * core in the layering DAG and is unit-testable with synthetic
 * backends.
 */

#ifndef TREADMILL_LB_BALANCER_H_
#define TREADMILL_LB_BALANCER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "lb/hash_ring.h"
#include "lb/policy.h"
#include "obs/metrics.h"
#include "server/request.h"
#include "sim/simulation.h"
#include "util/types.h"

namespace treadmill {
namespace lb {

/** Configuration of one balancer tier (core::ClusterParams derives
 *  from it). */
struct BalancerConfig {
    std::uint32_t backends = 0;    ///< Number of shards (required).
    std::uint32_t replication = 1; ///< Replicas per key (<= backends).
    std::uint32_t vnodesPerBackend = 64;
    /** Saturation cap per backend; 0 = never queue at the balancer. */
    std::uint32_t maxInflightPerBackend = 0;
    PolicyKind policy = PolicyKind::Fcfs;
    double edfSlackUs = 1000.0; ///< EDF latency budget.

    /** @throws ConfigError when inconsistent. */
    void validate() const;
};

/** Routes requests onto backend shards; see file comment. */
class LoadBalancer : public server::Service
{
  public:
    /** One attached backend shard. */
    struct Backend {
        /** Ship a request to the shard (wire + service path); its
         *  answer comes back through backendAnswered(). */
        std::function<void(server::RequestPtr)> forward;
        /** Liveness probe consulted at dispatch time; an empty
         *  function means always healthy. */
        std::function<bool()> healthy;
    };

    /**
     * @param sim Owning simulation.
     * @param config Tier configuration (validated here).
     * @param seed Run seed (policy randomness).
     */
    LoadBalancer(sim::Simulation &sim, const BalancerConfig &config,
                 std::uint64_t seed);

    LoadBalancer(const LoadBalancer &) = delete;
    LoadBalancer &operator=(const LoadBalancer &) = delete;

    /** Attach the next backend (ids assigned 0.. in call order);
     *  exactly config.backends calls, before the first receive(). */
    void addBackend(Backend backend);

    /**
     * Route @p request: ring lookup, replica walk, health filter,
     * policy selection; queue when all replicas are saturated; drop
     * (and count) when all replicas are down -- the client's timeout
     * machinery owns unanswered requests.
     */
    void receive(server::RequestPtr request) override;

    /** Backend @p b answered @p response: free its slot, drain the
     *  queue, then hand the answer to the sink. */
    void backendAnswered(std::uint32_t b, server::RequestPtr response);

    /** @name Observers
     * @{
     */
    const HashRing &hashRing() const { return ring; }
    std::uint32_t backendCount() const { return config.backends; }
    std::uint64_t inflightOf(std::uint32_t b) const
    {
        return inflight[b];
    }
    std::uint64_t dispatchedTo(std::uint32_t b) const
    {
        return backendDispatched[b]->value();
    }
    /** Requests parked in the dispatch queue right now. */
    std::size_t queueDepth() const { return queue.size(); }
    /** Requests that ever waited in the dispatch queue. */
    std::uint64_t queued() const { return queuedCounter.value(); }
    /** Requests dropped because every replica was down. */
    std::uint64_t unroutable() const { return unroutableCounter.value(); }
    /** Requests routed past a down primary to a later replica. */
    std::uint64_t failovers() const { return failoversCounter.value(); }
    /** @} */

  private:
    struct QueuedRequest {
        server::RequestPtr request;
        SimTime enqueuedAt = 0;
        /** Healthy replicas at enqueue time (re-filtered at pop). */
        std::vector<std::uint32_t> candidates;
    };

    /** True when @p b answers its health probe. */
    bool backendHealthy(std::uint32_t b) const;

    /** Hand @p request to backend @p b. */
    void dispatch(std::uint32_t b, server::RequestPtr request);

    /** A slot freed: dispatch queue heads while they fit. */
    void drainQueue();

    sim::Simulation &sim;
    BalancerConfig config;
    HashRing ring;
    std::unique_ptr<SchedulingPolicy> policy;
    std::vector<Backend> hooks;

    std::vector<std::uint64_t> inflight;      ///< Per backend.
    /** Dispatch queue ordered by (policy priority, arrival seq). */
    std::map<std::pair<double, std::uint64_t>, QueuedRequest> queue;
    std::uint64_t nextQueueSeq = 0;

    /** Scratch replica buffers (reused; dispatch allocates nothing
     *  once warm). */
    std::vector<std::uint32_t> scratchReplicas;
    std::vector<std::uint32_t> scratchHealthy;
    std::vector<std::uint32_t> scratchFree;

    /** @name Registry handles ("lb.*", resolved once)
     * @{
     */
    obs::Counter &dispatchedCounter;
    obs::Counter &queuedCounter;
    obs::Counter &unroutableCounter;
    obs::Counter &failoversCounter;
    obs::Gauge &queueDepthGauge;
    obs::Histogram &queueWaitHist;
    std::vector<obs::Counter *> backendDispatched;
    std::vector<obs::Gauge *> backendInflight;
    /** @} */
};

} // namespace lb
} // namespace treadmill

#endif // TREADMILL_LB_BALANCER_H_
