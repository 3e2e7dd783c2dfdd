/**
 * @file
 * The mcrouter model: a memcached-protocol router.
 *
 * mcrouter spends most of its time deserializing requests from network
 * packets -- CPU-bound work that frequency scaling accelerates (paper
 * Finding 8) -- then forwards each request to a backend pool and
 * relays the response. The backend round trip is asynchronous: it
 * occupies no router core, only time. A real pool (setBackendPool)
 * answers into the router's serialize stage through its sink.
 */

#ifndef TREADMILL_SERVER_MCROUTER_H_
#define TREADMILL_SERVER_MCROUTER_H_

#include <cstdint>
#include <string>

#include "hw/machine.h"
#include "server/request.h"
#include "server/server_metrics.h"
#include "util/random_variates.h"
#include "util/rng.h"

namespace treadmill {
namespace server {

/** Service-cost parameters of the mcrouter model. */
struct McrouterParams {
    double deserializeCycles = 20000.0; ///< Request parsing + routing.
    double serializeCycles = 7000.0;    ///< Response relay cost.
    double cyclesPerValueByte = 2.0;    ///< Marginal payload cost.
    double workJitterSigma = 0.35;      ///< Lognormal sigma on cycles.
    /** Occasional slow requests (route-map misses, reconnects). */
    double slowFraction = 0.008;
    double slowMultiplier = 3.0;
    /** mcrouter touches connection buffers far less than memcached;
     *  its NUMA stall is this fraction of the machine's full stall. */
    double memStallScale = 0.35;
    double backendMeanUs = 20.0;  ///< Mean backend round trip.
    double backendSigmaUs = 7.0;  ///< Backend round-trip spread.
};

/** Simulated mcrouter instance bound to a Machine. */
class McrouterServer : public Service
{
  public:
    McrouterServer(hw::Machine &machine, const McrouterParams &params,
                   std::uint64_t seed,
                   const std::string &scope = "server");

    void receive(RequestPtr request) override;

    /**
     * Route through @p pool (typically a lb::LoadBalancer fronting the
     * shard fabric) instead of the modelled lognormal backend delay.
     * The pool owns the entire backend round trip -- links, shard
     * service, and response links -- and the router core stays free
     * while it runs, exactly like the modelled path. Points the
     * pool's sink at this router's serialize stage.
     */
    void setBackendPool(Service *pool);

    /** Requests fully routed so far. */
    std::uint64_t served() const { return servedCount; }

    /** Expected router CPU seconds per request at nominal frequency. */
    double expectedServiceSeconds(double meanValueBytes) const;

  private:
    /** Stage 2: parse + route on the proxy thread. */
    void deserializeOnWorker(RequestPtr request, bool crossSocket);

    /** Stage 3: the backend answered; serialize the reply. */
    void serializeOnWorker(RequestPtr request);

    hw::Machine &machine;
    McrouterParams params;
    Rng rng;
    LogNormal jitter;
    LogNormal backendDelay;
    ServerMetrics metrics;
    Service *backendPool = nullptr; ///< Null: modelled backend delay.
    std::uint64_t servedCount = 0;
};

} // namespace server
} // namespace treadmill

#endif // TREADMILL_SERVER_MCROUTER_H_
