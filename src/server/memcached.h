/**
 * @file
 * The Memcached server model.
 *
 * Request path, mirroring a real deployment:
 *   NIC arrival -> RSS-steered interrupt handling on the irq core ->
 *   hand-off to the connection's worker thread (cross-socket transfer
 *   stall if the irq landed on the other socket) -> worker executes
 *   protocol parsing + hash-table operation, paying NUMA memory stalls
 *   on the connection buffer -> response leaves through the NIC.
 *
 * The hash-table operation is performed against a KvStore that keeps
 * each key's value size, not its bytes: hits, misses, LRU order,
 * evictions and response sizes are those of a store holding the real
 * values, and a warm server handles requests without heap allocation.
 */

#ifndef TREADMILL_SERVER_MEMCACHED_H_
#define TREADMILL_SERVER_MEMCACHED_H_

#include <cstdint>
#include <string>

#include "hw/machine.h"
#include "server/kvstore.h"
#include "server/request.h"
#include "server/server_metrics.h"
#include "util/random_variates.h"
#include "util/rng.h"

namespace treadmill {
namespace server {

/** Service-cost parameters of the Memcached model. */
struct MemcachedParams {
    double getCycles = 17000.0;   ///< Base worker cycles for a GET.
    double setCycles = 20000.0;   ///< Base worker cycles for a SET.
    double cyclesPerValueByte = 6.0; ///< Marginal cost of payload bytes.
    double workJitterSigma = 0.45; ///< Lognormal sigma on worker cycles.
    /** Occasional slow requests (hash-chain walks, slab maintenance,
     *  epoll hiccups): this fraction of requests costs slowMultiplier
     *  times the normal cycles -- the intrinsic service-time tail. */
    double slowFraction = 0.015;
    double slowMultiplier = 8.0;
    std::uint64_t storeCapacityBytes = 0; ///< 0 = unbounded.
};

/** Simulated Memcached instance bound to a Machine. */
class MemcachedServer : public Service
{
  public:
    /**
     * @param machine Configured hardware to run on.
     * @param params Service-cost parameters.
     * @param seed Stream for per-request work jitter.
     * @param scope Metric-name prefix ("server" for the classic single
     *        server, "backend<i>" for a cluster shard); claimed
     *        exclusively in the machine's registry.
     * @param backendRole True when this instance is a cluster shard
     *        behind a router. A shard records its worker window into
     *        the backendWorkerStart/End + backendNicDeparture stamps so
     *        it never clobbers the router's workerStart/End timeline on
     *        the shared Request (span traces need both tiers).
     */
    MemcachedServer(hw::Machine &machine, const MemcachedParams &params,
                    std::uint64_t seed,
                    const std::string &scope = "server",
                    bool backendRole = false);

    void receive(RequestPtr request) override;

    /** The backing store (inspection and pre-population). */
    KvStore &store() { return kv; }

    /** Requests fully served so far. */
    std::uint64_t served() const { return servedCount; }

    /**
     * Expected worker service seconds per request at nominal frequency
     * (for utilization -> request-rate sizing).
     *
     * @param meanValueBytes Mean payload size of the workload.
     */
    double expectedServiceSeconds(double meanValueBytes) const;

  private:
    /** Worker-thread portion of request handling. */
    void executeOnWorker(RequestPtr request, bool crossSocket);

    hw::Machine &machine;
    MemcachedParams params;
    KvStore kv;
    Rng rng;
    LogNormal jitter;
    ServerMetrics metrics;
    bool backendRole;
    std::uint64_t servedCount = 0;
};

} // namespace server
} // namespace treadmill

#endif // TREADMILL_SERVER_MEMCACHED_H_
