#include "lb/balancer.h"

#include <utility>

#include "util/error.h"
#include "util/logging.h"
#include "util/strings.h"

namespace treadmill {
namespace lb {

void
BalancerConfig::validate() const
{
    if (backends == 0)
        throw ConfigError("balancer needs at least one backend");
    if (replication == 0)
        throw ConfigError("balancer replication must be >= 1");
    if (replication > backends)
        throw ConfigError(strprintf(
            "balancer replication %u exceeds backend count %u",
            replication, backends));
}

LoadBalancer::LoadBalancer(sim::Simulation &sim_,
                           const BalancerConfig &config_,
                           std::uint64_t seed)
    : sim(sim_), config(config_),
      ring((config_.validate(), config_.backends), kVnodesPerBackend),
      rng(Rng(0x1b2d2c701ce5ull).substream(seed)),
      inflight(config_.backends, 0),
      dispatchedCounter(sim_.metrics().counter("lb.dispatched")),
      unroutableCounter(sim_.metrics().counter("lb.unroutable")),
      failoversCounter(sim_.metrics().counter("lb.failovers"))
{
    sim.metrics().claimScope("lb");
    // Nothing queues at the balancer, so "lb.queued" stays 0; it stays
    // registered because perfbench/study_bench.cc reads it by name, and
    // its traced ledger prints a missing counter as null.
    sim.metrics().counter("lb.queued");
    hooks.reserve(config.backends);
    backendDispatched.reserve(config.backends);
    backendInflight.reserve(config.backends);
    for (std::uint32_t b = 0; b < config.backends; ++b) {
        const std::string prefix = strprintf("lb.backend%u.", b);
        backendDispatched.push_back(
            &sim.metrics().counter(prefix + "dispatched"));
        backendInflight.push_back(
            &sim.metrics().gauge(prefix + "inflight"));
    }
    scratchReplicas.reserve(config.backends);
    scratchHealthy.reserve(config.backends);
}

void
LoadBalancer::addBackend(Backend backend)
{
    if (hooks.size() >= config.backends)
        throw ConfigError("more backends attached than configured");
    if (!backend.forward)
        throw ConfigError("backend needs a forward hook");
    hooks.push_back(std::move(backend));
}

bool
LoadBalancer::backendHealthy(std::uint32_t b) const
{
    const auto &probe = hooks[b].healthy;
    return !probe || probe();
}

// tmlint:hot-path-begin -- receive/pick/dispatch/backendAnswered run
// once per routed request; stamping and selection must stay
// alloc-free.
void
LoadBalancer::receive(server::RequestPtr request)
{
    TM_ASSERT(hooks.size() == config.backends,
              "balancer used before all backends attached");
    request->lbArrival = sim.now();
    ring.replicas(HashRing::hashKeyId(request->keyId), config.replication,
                  scratchReplicas);
    scratchHealthy.clear();
    for (std::uint32_t b : scratchReplicas) {
        if (backendHealthy(b))
            scratchHealthy.push_back(b);
    }
    if (scratchHealthy.empty()) {
        // Every replica of this key is down. The request dies here;
        // the client's timeout/retry machinery owns unanswered
        // requests, and the counter makes the black hole visible.
        // The stamp lets span traces account the loss as failover
        // wait instead of an anonymous timeout.
        request->lbDropped = true;
        unroutableCounter.add();
        return;
    }
    if (scratchHealthy.front() != scratchReplicas.front()) {
        failoversCounter.add();
        // Down replicas skipped ahead of the first healthy one: the
        // per-attempt failover hop count for span traces.
        std::uint32_t hops = 0;
        for (std::uint32_t b : scratchReplicas) {
            if (b == scratchHealthy.front())
                break;
            ++hops;
        }
        request->lbFailovers = hops;
    }
    dispatch(scratchHealthy[pick()], std::move(request));
}

std::size_t
LoadBalancer::pick()
{
    const std::size_t n = scratchHealthy.size();
    if (config.policy == PolicyKind::Fcfs || n == 1)
        return 0;
    // Sample two distinct candidate slots; ship to the emptier one.
    // Ties go to the first sample, which is itself uniform.
    const std::size_t a = rng.nextBelow(n);
    std::size_t b = rng.nextBelow(n - 1);
    if (b >= a)
        ++b;
    return inflight[scratchHealthy[b]] < inflight[scratchHealthy[a]] ? b
                                                                     : a;
}

void
LoadBalancer::dispatch(std::uint32_t b, server::RequestPtr request)
{
    ++inflight[b];
    dispatchedCounter.add();
    backendDispatched[b]->add();
    backendInflight[b]->set(static_cast<double>(inflight[b]));
    request->backendId = static_cast<std::int32_t>(b);
    request->lbDispatch = sim.now();
    hooks[b].forward(std::move(request));
}

void
LoadBalancer::backendAnswered(std::uint32_t b,
                              server::RequestPtr response)
{
    TM_ASSERT(inflight[b] > 0, "backend answered a request it never got");
    --inflight[b];
    backendInflight[b]->set(static_cast<double>(inflight[b]));
    answer(std::move(response));
}
// tmlint:hot-path-end

} // namespace lb
} // namespace treadmill
