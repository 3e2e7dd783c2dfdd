#include "core/experiment.h"

#include <memory>

#include "fault/injector.h"
#include "hw/machine.h"
#include "lb/balancer.h"
#include "net/capture.h"
#include "net/topology.h"
#include "server/fault_shim.h"
#include "server/mcrouter.h"
#include "server/memcached.h"
#include "sim/simulation.h"
#include "stats/summary.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/strings.h"

namespace treadmill {
namespace core {

double
ExperimentResult::aggregatedQuantile(double q, AggregationKind kind) const
{
    if (instances.empty())
        throw NumericalError("experiment produced no instances");
    if (kind == AggregationKind::Holistic)
        return stats::quantile(mergedSamples(), q);

    // Extract the metric per instance, then aggregate the metrics.
    std::vector<double> perInstance;
    perInstance.reserve(instances.size());
    for (const InstanceReport &inst : instances) {
        const auto it = inst.quantiles.find(q);
        if (it != inst.quantiles.end()) {
            perInstance.push_back(it->second);
        } else if (!inst.rawSamples.empty()) {
            perInstance.push_back(stats::quantile(inst.rawSamples, q));
        }
    }
    if (perInstance.empty())
        throw NumericalError("no instance collected samples");
    return stats::mean(perInstance);
}

std::vector<double>
ExperimentResult::mergedSamples() const
{
    std::vector<double> merged;
    for (const InstanceReport &inst : instances)
        merged.insert(merged.end(), inst.rawSamples.begin(),
                      inst.rawSamples.end());
    return merged;
}

std::size_t
ExperimentResult::instancesAtTarget() const
{
    std::size_t n = 0;
    for (const InstanceReport &inst : instances)
        n += inst.reachedTarget ? 1 : 0;
    return n;
}

double
deriveRequestRate(const ExperimentParams &params)
{
    if (params.requestsPerSecond > 0.0)
        return params.requestsPerSecond;

    // Probe the expected per-request service time under this config by
    // building a scratch machine with the run's placement.
    sim::Simulation scratch;
    hw::Machine machine(scratch, params.config, params.seed);
    double serviceSeconds = 0.0;
    if (params.kind == WorkloadKind::Memcached) {
        server::MemcachedServer probe(machine, params.seed);
        serviceSeconds =
            probe.expectedServiceSeconds(params.workload.valueBytesMean);
    } else {
        server::McrouterServer probe(machine, params.seed);
        serviceSeconds =
            probe.expectedServiceSeconds(params.workload.valueBytesMean);
    }
    TM_ASSERT(serviceSeconds > 0.0, "service time must be positive");
    const double capacity =
        static_cast<double>(hw::kMachine.workerThreads) / serviceSeconds;
    return params.targetUtilization * capacity;
}

namespace {

/** Standard quantile grid extracted from every instance collector. */
const double kQuantileGrid[] = {0.5, 0.9, 0.95, 0.99, 0.999};

/** Mutable state shared by the wiring lambdas. */
struct Harness {
    ExperimentParams params;
    sim::Simulation sim;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<server::MemcachedServer> memcached;
    std::unique_ptr<server::McrouterServer> mcrouter;
    std::unique_ptr<net::Cluster> cluster;
    net::PacketCapture capture;
    /** Sharded backend tier; all empty/null when
     *  params.cluster.backends == 0, so the classic path builds no
     *  extra state at all. */
    std::unique_ptr<net::ShardFabric> fabric;
    std::unique_ptr<lb::LoadBalancer> balancer;
    std::vector<std::unique_ptr<hw::Machine>> backendMachines;
    std::vector<std::unique_ptr<server::MemcachedServer>> backendServers;
    std::vector<std::unique_ptr<server::ServiceFaultShim>> backendShims;
    /** Fault machinery; both null when params.faultPlan is empty, so
     *  an un-faulted run takes the raw service path untouched. */
    std::unique_ptr<server::ServiceFaultShim> faultShim;
    std::unique_ptr<fault::FaultInjector> injector;
    /** Where client requests land: the server, or its fault shim when
     *  one is wired. */
    server::Service *front = nullptr;
    std::vector<std::unique_ptr<LoadTesterInstance>> instances;
    obs::SpanRecorder spanRecorder;
    obs::TelemetrySampler sampler;
    bool deadlineHit = false;

    std::uint64_t responsesCompleted = 0;

    /**
     * Send @p request down @p path as one @p kind packet; on arrival
     * stamp @p arrival (if not null) and pass the request and packet
     * to @p next. Every hop of both tiers goes through here.
     *
     * @return The packet sent, for the capture at the server NIC.
     */
    template <typename Next>
    net::Packet
    hop(const net::Path &path, net::PacketKind kind,
        server::RequestPtr request, SimTime server::Request::*arrival,
        Next next)
    {
        net::Packet pkt;
        pkt.seqId = request->seqId;
        pkt.connectionId = request->connectionId;
        pkt.bytes = kind == net::PacketKind::Request
                        ? request->requestBytes
                        : request->responseBytes;
        pkt.kind = kind;
        path.send(sim, pkt,
                  [this, arrival, request = std::move(request),
                   next = std::move(next)](
                      const net::Packet &arrived) mutable {
                      if (arrival != nullptr)
                          (*request).*arrival = sim.now();
                      next(std::move(request), arrived);
                  });
        return pkt;
    }

    /**
     * One telemetry snapshot, self-rescheduling on the sampler's
     * period until the tick cap is hit. Probes are read-only and
     * Rng-free, so these events never perturb the request trajectory.
     */
    void
    telemetryTick()
    {
        sampler.sample(sim.now());
        if (!sampler.full())
            sim.schedule(sampler.period(), [this] { telemetryTick(); });
    }
};

/**
 * Build the sharded backend tier: fabric links, per-shard machines and
 * Memcached services (scoped "backend<i>"), per-shard fault shims when
 * the run has a fault plan, and the balancer. Shard b's forward hook
 * carries a request across the fabric into the shard; the shard's sink
 * carries the answer back and reports it to the balancer as b's.
 */
void
wireClusterTier(Harness *h)
{
    const ExperimentParams &params = h->params;
    const ClusterParams &cl = params.cluster;
    if (params.kind != WorkloadKind::Mcrouter)
        throw ConfigError(
            "a backend cluster requires the mcrouter workload");

    h->fabric = std::make_unique<net::ShardFabric>(h->sim, cl.backends);

    h->balancer =
        std::make_unique<lb::LoadBalancer>(h->sim, cl, params.seed);

    const bool withShims = !params.faultPlan.empty();
    for (std::uint32_t b = 0; b < cl.backends; ++b) {
        // Distinct placement/jitter streams per shard, derived only
        // from the run seed and the shard id.
        const std::uint64_t shardSeed = params.seed * 8191 + b + 1;
        h->backendMachines.push_back(std::make_unique<hw::Machine>(
            h->sim, params.config, shardSeed));
        h->backendServers.push_back(
            std::make_unique<server::MemcachedServer>(
                *h->backendMachines.back(), shardSeed,
                strprintf("backend%u", b), /*backendRole=*/true));
        server::Service *shard = h->backendServers.back().get();
        if (withShims) {
            h->backendShims.push_back(
                std::make_unique<server::ServiceFaultShim>(
                    h->sim, *shard, strprintf("backend%u", b)));
            shard = h->backendShims.back().get();
        }

        shard->setSink([h, b](server::RequestPtr response) {
            h->hop(h->fabric->fromBackend(b), net::PacketKind::Response,
                   std::move(response), nullptr,
                   [h, b](server::RequestPtr resp, const net::Packet &) {
                       h->balancer->backendAnswered(b, std::move(resp));
                   });
        });
        lb::LoadBalancer::Backend hook;
        hook.forward = [h, b, shard](server::RequestPtr request) {
            h->hop(h->fabric->toBackend(b), net::PacketKind::Request,
                   std::move(request), &server::Request::backendNicArrival,
                   [shard](server::RequestPtr req, const net::Packet &) {
                       shard->receive(std::move(req));
                   });
        };
        if (withShims) {
            server::ServiceFaultShim *shim = h->backendShims.back().get();
            hook.healthy = [shim] { return !shim->crashed(); };
        }
        h->balancer->addBackend(std::move(hook));
    }

    h->mcrouter->setBackendPool(h->balancer.get());
}

} // namespace

ExperimentResult
runExperiment(const ExperimentParams &params)
{
    if (params.tester.clientMachines == 0)
        throw ConfigError("experiment needs at least one client");

    auto h = std::make_unique<Harness>();
    h->params = params;
    h->spanRecorder = obs::SpanRecorder(params.trace);
    h->sampler = obs::TelemetrySampler(params.telemetry);

    h->machine =
        std::make_unique<hw::Machine>(h->sim, params.config, params.seed);
    if (params.kind == WorkloadKind::Memcached) {
        h->memcached = std::make_unique<server::MemcachedServer>(
            *h->machine, params.seed);
        h->front = h->memcached.get();
    } else {
        h->mcrouter = std::make_unique<server::McrouterServer>(
            *h->machine, params.seed);
        h->front = h->mcrouter.get();
    }

    std::vector<net::Cluster::ClientSpec> clientSpecs(
        params.tester.clientMachines);
    if (params.oneRemoteRackClient && !clientSpecs.empty())
        clientSpecs[0].remoteRack = true;
    // The server's access links run at its NIC's Table II speed.
    static_assert(hw::kMachine.nicGbps == net::kAccessLinkGbps);
    h->cluster = std::make_unique<net::Cluster>(h->sim, clientSpecs);

    if (params.cluster.backends > 0)
        wireClusterTier(h.get());

    if (!params.faultPlan.empty()) {
        h->faultShim = std::make_unique<server::ServiceFaultShim>(
            h->sim, *h->front);
        h->front = h->faultShim.get();
        h->injector = std::make_unique<fault::FaultInjector>(
            h->sim, params.faultPlan, params.seed);
        std::vector<net::Link *> links = h->cluster->allLinks();
        if (h->fabric) {
            const std::vector<net::Link *> fabricLinks =
                h->fabric->allLinks();
            links.insert(links.end(), fabricLinks.begin(),
                         fabricLinks.end());
        }
        h->injector->attachLinks(links);
        h->injector->attachShim(*h->faultShim);
        h->injector->attachNic(h->machine->mutableNic());
        for (std::size_t b = 0; b < h->backendShims.size(); ++b)
            h->injector->attachBackendShim(
                static_cast<std::uint32_t>(b), *h->backendShims[b]);
        for (std::size_t b = 0; b < h->backendMachines.size(); ++b)
            h->injector->attachBackendNic(
                static_cast<std::uint32_t>(b),
                h->backendMachines[b]->mutableNic());
        h->injector->arm();
    }

    // Server NIC (captured) -> network -> the request's client.
    auto *harness = h.get();
    h->front->setSink([harness](server::RequestPtr response) {
        const auto client =
            static_cast<std::size_t>(response->clientIndex);
        const net::Packet sent = harness->hop(
            harness->cluster->serverToClient(client),
            net::PacketKind::Response, std::move(response),
            &server::Request::clientNicArrival,
            [harness, client](server::RequestPtr resp,
                              const net::Packet &) {
                harness->instances[client]->onResponseDelivered(
                    std::move(resp));
            });
        harness->capture.onResponse(sent, harness->sim.now());
    });

    const double totalRps = deriveRequestRate(params);
    const double perClientRps =
        totalRps / static_cast<double>(params.tester.clientMachines);

    // Estimate the mean response time for closed-loop slot sizing:
    // expected service + network round trip + client costs.
    const double estServiceSeconds =
        h->memcached ? h->memcached->expectedServiceSeconds(
                           params.workload.valueBytesMean)
                     : h->mcrouter->expectedServiceSeconds(
                           params.workload.valueBytesMean);
    const double estMeanResponseSeconds = estServiceSeconds + 20e-6;

    for (std::size_t i = 0; i < params.tester.clientMachines; ++i) {
        ClientParams cp;
        cp.index = i;
        cp.requestsPerSecond = perClientRps;
        cp.loop = params.tester.loop;
        cp.closedLoopSlots =
            params.tester.connectionsPerClient > 0
                ? params.tester.connectionsPerClient
                : closedLoopConnectionsFor(perClientRps,
                                           estMeanResponseSeconds);
        cp.rateLimitedClosedLoop = params.tester.rateLimitedClosedLoop;
        cp.collector = params.collector;
        cp.sendCostUs = params.clientSendCostUs;
        cp.receiveCostUs = params.clientReceiveCostUs;
        cp.resilience = params.resilience;
        cp.recordSpans = params.trace.enabled;
        cp.seed = params.seed * 1009 + i;

        auto instance = std::make_unique<LoadTesterInstance>(
            h->sim, cp, params.workload,
            [harness, i](server::RequestPtr request) {
                // Client NIC -> network -> server NIC (captured).
                harness->hop(
                    harness->cluster->clientToServer(i),
                    net::PacketKind::Request, std::move(request),
                    &server::Request::nicArrival,
                    [harness](server::RequestPtr req,
                              const net::Packet &arrived) {
                        harness->capture.onRequest(arrived,
                                                   harness->sim.now());
                        harness->front->receive(std::move(req));
                    });
            });
        if (params.trace.enabled) {
            instance->setSpanSink([harness](const obs::SpanView &s) {
                harness->spanRecorder.record(s);
            });
        }
        h->instances.push_back(std::move(instance));
    }

    // Size span retention up front (headroom for retried/cloned
    // attempts) so recording never grows the record vector.
    h->spanRecorder.reserveFor(
        static_cast<std::size_t>(params.tester.clientMachines) *
            (params.collector.warmUpSamples +
             params.collector.calibrationSamples +
             params.collector.measurementSamples) * 5 / 4 +
        1024);

    // Completion hook: stop load at per-instance targets, stop the
    // simulation when every instance is done.
    for (auto &instance : h->instances) {
        instance->setCompletionHook(
            [harness](const server::RequestPtr &) {
                ++harness->responsesCompleted;
                bool allDone = true;
                for (auto &inst : harness->instances) {
                    if (inst->done())
                        inst->stopLoad();
                    else
                        allDone = false;
                }
                if (allDone)
                    harness->sim.stop();
            });
    }

    // Telemetry: register every probe (registration order is the
    // stable export order), then kick the first tick at t=0. Probes
    // are plain reads of state the run maintains anyway.
    if (params.telemetry.enabled) {
        harness->sampler.addProbe("sim.event_queue_depth", [harness] {
            return static_cast<double>(harness->sim.pendingEvents());
        });
        harness->sampler.addProbe(
            "server.worker_utilization", [harness] {
                return harness->machine->workerUtilization();
            });
        for (std::size_t i = 0; i < h->instances.size(); ++i) {
            LoadTesterInstance *inst = h->instances[i].get();
            harness->sampler.addProbe(
                strprintf("client%zu.outstanding", i), [inst] {
                    return static_cast<double>(inst->outstanding());
                });
            harness->sampler.addProbe(
                strprintf("client%zu.pool_slabs", i), [inst] {
                    return static_cast<double>(
                        inst->requestPoolSlabs());
                });
        }
        if (h->balancer) {
            lb::LoadBalancer *bal = h->balancer.get();
            for (std::uint32_t b = 0; b < params.cluster.backends;
                 ++b) {
                harness->sampler.addProbe(
                    strprintf("backend%u.inflight", b), [bal, b] {
                        return static_cast<double>(bal->inflightOf(b));
                    });
                hw::Machine *bm = h->backendMachines[b].get();
                harness->sampler.addProbe(
                    strprintf("backend%u.worker_utilization", b),
                    [bm] { return bm->workerUtilization(); });
            }
        }
        h->telemetryTick();
    }

    for (auto &instance : h->instances)
        instance->start();
    h->sim.scheduleAt(params.deadline, [harness] {
        warn("experiment", "hit the simulated-time deadline");
        harness->deadlineHit = true;
        harness->sim.stop();
    });
    h->sim.run();

    // Harvest results.
    ExperimentResult result;
    result.targetRps = totalRps;
    result.simulatedTime = h->sim.now();
    result.serverUtilization = h->machine->workerUtilization();
    result.frequencyTransitions = h->machine->totalFrequencyTransitions();
    result.achievedRps =
        h->sim.now() > 0
            ? static_cast<double>(h->responsesCompleted) /
                  toSeconds(h->sim.now())
            : 0.0;
    result.groundTruthUs = h->capture.latenciesUs();
    result.deadlineHit = h->deadlineHit;

    // Surface the tcpdump-analogue's diagnostics instead of silently
    // dropping them. Unmatched responses mean the capture's matching
    // broke -- always worth a warning. Requests still outstanding at
    // the end are expected teardown residue (in-flight when the last
    // collector finished), so they only warrant a warning when the run
    // was cut short by its deadline.
    result.captureUnmatchedResponses = h->capture.unmatchedResponses();
    result.captureOutstanding = h->capture.outstanding();
    if (result.captureUnmatchedResponses > 0) {
        warn("capture",
             strprintf("%llu responses had no matching request",
                       static_cast<unsigned long long>(
                           result.captureUnmatchedResponses)));
    }
    if (result.captureOutstanding > 0) {
        const std::string msg = strprintf(
            "%zu requests still outstanding at experiment end",
            result.captureOutstanding);
        if (h->deadlineHit)
            warn("capture", msg);
        else
            inform("capture", msg);
    }

    result.spans = h->spanRecorder.takeSpans();
    result.telemetry = h->sampler.takeSeries();
    if (h->injector)
        result.faultWindows = h->injector->annotations();

    for (std::size_t i = 0; i < h->instances.size(); ++i) {
        const LoadTesterInstance &inst = *h->instances[i];
        InstanceReport report;
        report.rawSamples = inst.collector().rawSamples();
        report.measured = inst.collector().measured();
        report.reachedTarget = inst.done();
        report.cpuUtilization = inst.cpuUtilization();
        report.remoteRack = h->cluster->isRemoteRack(i);
        report.outstandingAtSend = inst.outstandingAtSend();
        report.trajectory = inst.collector().trajectory();
        if (report.measured > 0) {
            for (double q : kQuantileGrid)
                report.quantiles[q] = inst.collector().quantile(q);
        }
        result.instances.push_back(std::move(report));
    }

    // Final gauge values that are only known at harvest time, then a
    // snapshot of everything the run's components recorded.
    obs::MetricsRegistry &registry = h->sim.metrics();
    for (std::size_t i = 0; i < h->instances.size(); ++i) {
        registry
            .gauge(strprintf("client%zu.cpu_utilization", i))
            .set(h->instances[i]->cpuUtilization());
    }
    registry.gauge("server.worker_utilization")
        .set(h->machine->workerUtilization());
    result.metrics = registry.snapshot();
    return result;
}

} // namespace core
} // namespace treadmill
