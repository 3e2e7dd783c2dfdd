#include "lb/balancer.h"

#include <algorithm>
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
    if (vnodesPerBackend == 0)
        throw ConfigError("balancer needs at least one virtual node");
    if (policy == PolicyKind::Edf && edfSlackUs <= 0.0)
        throw ConfigError("EDF slack must be positive");
}

LoadBalancer::LoadBalancer(sim::Simulation &sim_,
                           const BalancerConfig &config_,
                           std::uint64_t seed)
    : sim(sim_), config(config_),
      ring((config_.validate(), config_.backends),
           config_.vnodesPerBackend),
      policy(makePolicy(config_.policy, seed, config_.edfSlackUs)),
      inflight(config_.backends, 0),
      dispatchedCounter(sim_.metrics().counter("lb.dispatched")),
      queuedCounter(sim_.metrics().counter("lb.queued")),
      unroutableCounter(sim_.metrics().counter("lb.unroutable")),
      failoversCounter(sim_.metrics().counter("lb.failovers")),
      queueDepthGauge(sim_.metrics().gauge("lb.queue_depth")),
      queueWaitHist(sim_.metrics().histogram("lb.queue_wait_us"))
{
    sim.metrics().claimScope("lb");
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
    scratchFree.reserve(config.backends);
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

// tmlint:hot-path-begin -- receive/dispatch/backendAnswered/drainQueue
// run once per routed request; stamping and selection must stay
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

    if (config.maxInflightPerBackend > 0) {
        scratchFree.clear();
        for (std::uint32_t b : scratchHealthy) {
            if (inflight[b] < config.maxInflightPerBackend)
                scratchFree.push_back(b);
        }
        if (scratchFree.empty()) {
            // Every replica is saturated: park in the dispatch queue
            // under the policy's priority (ties by arrival order).
            queuedCounter.add();
            QueuedRequest entry;
            entry.enqueuedAt = sim.now();
            entry.candidates = scratchHealthy;
            entry.request = std::move(request);
            queue.emplace(
                std::make_pair(policy->queuePriority(*entry.request),
                               nextQueueSeq++),
                std::move(entry));
            queueDepthGauge.set(static_cast<double>(queue.size()));
            return;
        }
        const BackendSnapshot snapshot{inflight.data(),
                                       inflight.size()};
        const std::size_t pick =
            policy->select(scratchFree, snapshot, *request);
        dispatch(scratchFree[pick], std::move(request));
        return;
    }

    const BackendSnapshot snapshot{inflight.data(), inflight.size()};
    const std::size_t pick =
        policy->select(scratchHealthy, snapshot, *request);
    dispatch(scratchHealthy[pick], std::move(request));
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
    // Reuse the freed slot at the earliest instant, then let the
    // response continue toward the client.
    drainQueue();
    answer(std::move(response));
}

void
LoadBalancer::drainQueue()
{
    // Strict priority order: only the head may dispatch. If the head's
    // replicas are all still saturated (or down), later entries wait
    // behind it -- head-of-line blocking is part of what the balancer
    // queue models.
    while (!queue.empty()) {
        auto headIt = queue.begin();
        QueuedRequest &head = headIt->second;
        scratchFree.clear();
        for (std::uint32_t b : head.candidates) {
            if (backendHealthy(b) &&
                (config.maxInflightPerBackend == 0 ||
                 inflight[b] < config.maxInflightPerBackend))
                scratchFree.push_back(b);
        }
        if (scratchFree.empty())
            break;
        const BackendSnapshot snapshot{inflight.data(),
                                       inflight.size()};
        const std::size_t pick =
            policy->select(scratchFree, snapshot, *head.request);
        queueWaitHist.record(toMicros(sim.now() - head.enqueuedAt));
        server::RequestPtr request = std::move(head.request);
        const std::uint32_t target = scratchFree[pick];
        queue.erase(headIt);
        queueDepthGauge.set(static_cast<double>(queue.size()));
        dispatch(target, std::move(request));
    }
}
// tmlint:hot-path-end

} // namespace lb
} // namespace treadmill
