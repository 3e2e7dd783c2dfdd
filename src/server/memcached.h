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
 * The hash-table operation runs against a map from key id to value
 * size: a stored value matters only through its size (a GET hit's
 * response carries that many bytes), so hits, misses and response
 * sizes are those of a store holding the real values, and a warm
 * server handles requests without heap allocation. The store is
 * unbounded -- no run evicts.
 */

#ifndef TREADMILL_SERVER_MEMCACHED_H_
#define TREADMILL_SERVER_MEMCACHED_H_

#include <cstdint>
#include <string>

#include "hw/machine.h"
#include "server/request.h"
#include "server/server_metrics.h"
#include "util/flat_map.h"
#include "util/random_variates.h"
#include "util/rng.h"

namespace treadmill {
namespace server {

/** Simulated Memcached instance bound to a Machine. */
class MemcachedServer : public Service
{
  public:
    /**
     * @param machine Configured hardware to run on.
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
    MemcachedServer(hw::Machine &machine, std::uint64_t seed,
                    const std::string &scope = "server",
                    bool backendRole = false);

    void receive(Request *request) override;

    /** Key id -> stored value size (inspection). */
    const util::FlatU64Map<std::uint32_t> &store() const { return values; }

    /**
     * Expected worker service seconds per request at nominal frequency
     * (for utilization -> request-rate sizing).
     *
     * @param meanValueBytes Mean payload size of the workload.
     */
    double expectedServiceSeconds(double meanValueBytes) const;

  private:
    /** Worker-thread portion of request handling. */
    void executeOnWorker(Request *request, bool crossSocket);

    hw::Machine &machine;
    util::FlatU64Map<std::uint32_t> values;
    Rng rng;
    LogNormal jitter;
    ServerMetrics metrics;
    bool backendRole;
};

} // namespace server
} // namespace treadmill

#endif // TREADMILL_SERVER_MEMCACHED_H_
