/**
 * @file
 * The load-balancer tier: a first-class component between the router
 * and the backend shards.
 *
 * The balancer is itself a server::Service, so anything that can talk
 * to a server can talk to a cluster: it hashes each request's key onto
 * the consistent-hash ring, collects the key's replica set, filters
 * out crashed backends (failover), and picks the destination by the
 * configured policy:
 *
 *  - FCFS: the primary replica -- the baseline router every
 *    comparison starts from.
 *  - Power-of-two-choices: sample two distinct replicas and send to
 *    the one with fewer requests in flight (Mitzenmacher's exponential
 *    improvement over random placement).
 *
 * Every request dispatches the instant it arrives: the balancer holds
 * no queue, so a span's LB-queueing segment reads 0.
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
#include <vector>

#include "lb/hash_ring.h"
#include "obs/metrics.h"
#include "server/request.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/types.h"

namespace treadmill {
namespace lb {

/** The balancer's replica-selection policies. The values (0, 1) are
 *  hashed into core::configDigest, so archived digests depend on
 *  them. */
enum class PolicyKind { Fcfs, PowerOfTwo };

/** Configuration of one balancer tier (core::ClusterParams). */
struct BalancerConfig {
    std::uint32_t backends = 0;    ///< Number of shards (required).
    std::uint32_t replication = 1; ///< Replicas per key (<= backends).
    PolicyKind policy = PolicyKind::Fcfs;

    /** @throws ConfigError when inconsistent. */
    void validate() const;
};

/** Routes requests onto backend shards; see file comment. */
class LoadBalancer : public server::Service
{
  public:
    /** Virtual points each backend owns on the hash ring. */
    static constexpr std::uint32_t kVnodesPerBackend = 64;

    /** One attached backend shard. */
    struct Backend {
        /** Ship a request to the shard (wire + service path); its
         *  answer comes back through backendAnswered(). */
        std::function<void(server::Request *)> forward;
        /** Liveness probe consulted at dispatch time; an empty
         *  function means always healthy. */
        std::function<bool()> healthy;
    };

    /**
     * @param sim Owning simulation.
     * @param config Tier configuration (validated here).
     * @param seed Run seed (power-of-two's replica sampling).
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
     * policy pick; drop (and count) when all replicas are down -- the
     * client's timeout machinery owns unanswered requests.
     */
    void receive(server::Request *request) override;

    /** Backend @p b answered @p response: free its slot, then hand
     *  the answer to the sink. */
    void backendAnswered(std::uint32_t b, server::Request *response);

    /** @name Observers
     * Counts live in the registry ("lb.*"); these are the state a
     * probe reads.
     * @{
     */
    const HashRing &hashRing() const { return ring; }
    std::uint64_t inflightOf(std::uint32_t b) const
    {
        return inflight[b];
    }
    /** @} */

  private:
    /** True when @p b answers its health probe. */
    bool backendHealthy(std::uint32_t b) const;

    /** The policy's pick: an index into scratchHealthy (non-empty,
     *  primary first). */
    std::size_t pick();

    /** Hand @p request to backend @p b. */
    void dispatch(std::uint32_t b, server::Request *request);

    sim::Simulation &sim;
    BalancerConfig config;
    HashRing ring;
    /** Power-of-two's sampling stream, derived from the run seed. */
    Rng rng;
    std::vector<Backend> hooks;

    std::vector<std::uint64_t> inflight;      ///< Per backend.

    /** Scratch replica buffers (reused; dispatch allocates nothing
     *  once warm). */
    std::vector<std::uint32_t> scratchReplicas;
    std::vector<std::uint32_t> scratchHealthy;

    /** @name Registry handles ("lb.*", resolved once)
     * @{
     */
    obs::Counter &dispatchedCounter;
    obs::Counter &unroutableCounter;
    obs::Counter &failoversCounter;
    std::vector<obs::Counter *> backendDispatched;
    std::vector<obs::Gauge *> backendInflight;
    /** @} */
};

} // namespace lb
} // namespace treadmill

#endif // TREADMILL_LB_BALANCER_H_
