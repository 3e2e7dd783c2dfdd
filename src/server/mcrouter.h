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

/** Simulated mcrouter instance bound to a Machine. */
class McrouterServer : public Service
{
  public:
    /** @name Modelled backend round trip (no backend pool)
     * @{
     */
    static constexpr double kBackendMeanUs = 20.0;  ///< Mean.
    static constexpr double kBackendSigmaUs = 7.0;  ///< Spread.
    /** @} */

    McrouterServer(hw::Machine &machine, std::uint64_t seed,
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

    /** Expected router CPU seconds per request at nominal frequency. */
    double expectedServiceSeconds(double meanValueBytes) const;

  private:
    /** Stage 2: parse + route on the proxy thread. */
    void deserializeOnWorker(RequestPtr request, bool crossSocket);

    /** Stage 3: the backend answered; serialize the reply. */
    void serializeOnWorker(RequestPtr request);

    hw::Machine &machine;
    Rng rng;
    LogNormal jitter;
    LogNormal backendDelay;
    ServerMetrics metrics;
    Service *backendPool = nullptr; ///< Null: modelled backend delay.
};

} // namespace server
} // namespace treadmill

#endif // TREADMILL_SERVER_MCROUTER_H_
