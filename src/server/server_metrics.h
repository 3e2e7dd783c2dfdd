/**
 * @file
 * Shared server-side telemetry: every service model (Memcached,
 * mcrouter) publishes the same queue-wait / service-time /
 * hit-rate metrics into its machine's registry, so decomposition
 * reports and dashboards read one schema regardless of workload kind.
 */

#ifndef TREADMILL_SERVER_SERVER_METRICS_H_
#define TREADMILL_SERVER_SERVER_METRICS_H_

#include <string>

#include "obs/metrics.h"
#include "server/request.h"
#include "util/types.h"

namespace treadmill {
namespace server {

/**
 * Registry handles for the common server metrics.
 *
 * @p scope is the dotted metric prefix ("server" for the classic
 * single-server experiment, "backend2" for shard 2 of a cluster). The
 * scope is claimed exclusively at construction: two services landing on
 * the same prefix -- which would silently merge their queue-wait and
 * hit-rate telemetry -- throw ConfigError instead.
 */
class ServerMetrics
{
  public:
    explicit ServerMetrics(obs::MetricsRegistry &registry,
                           const std::string &scope = "server")
        : queueWaitUs(registry.histogram(scope + ".queue_wait_us")),
          serviceUs(registry.histogram(scope + ".service_us")),
          hits(registry.counter(scope + ".hits")),
          misses(registry.counter(scope + ".misses")),
          servedCounter(registry.counter(scope + ".served"))
    {
        registry.claimScope(scope);
    }

    /**
     * Record one fully served request.
     *
     * The stamps are passed explicitly rather than read off the
     * request because in a cluster the same Request object crosses
     * both the router and a backend shard, each with its own
     * arrival/start/end instants; reading the shared fields would
     * credit one tier with the other's queueing. @p arrival may be
     * kNoTime for a service fed without NIC stamping (direct harness
     * injection), in which case the queue wait is not recorded.
     */
    void
    onServed(const Request &request, SimTime arrival, SimTime start,
             SimTime end)
    {
        if (arrival != kNoTime)
            queueWaitUs.record(toMicros(start - arrival));
        serviceUs.record(toMicros(end - start));
        (request.hit ? hits : misses).add();
        servedCounter.add();
    }

    /** Requests recorded by onServed() so far. */
    std::uint64_t served() const { return servedCounter.value(); }

  private:
    obs::Histogram &queueWaitUs; ///< NIC arrival to worker start.
    obs::Histogram &serviceUs;   ///< Worker start to worker end.
    obs::Counter &hits;
    obs::Counter &misses;
    obs::Counter &servedCounter;
};

} // namespace server
} // namespace treadmill

#endif // TREADMILL_SERVER_SERVER_METRICS_H_
