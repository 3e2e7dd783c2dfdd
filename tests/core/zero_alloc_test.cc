/**
 * @file
 * Steady-state allocation assertions for the client request loop, the
 * server data path and whole experiments on both request tiers.
 *
 * Built only under -DTM_COUNT_ALLOCS=ON: the binary links the global
 * operator new/delete interposer (util/alloc_hook.cc) and asserts that
 * once the request pool, event-queue slots, collector buffers and KV
 * store are warm, driving tens of thousands of requests through a
 * load-tester instance or a Memcached server performs zero heap
 * allocations, and that a longer runExperiment -- classic or routed
 * through the balancer and shard fabric, with a stalling server --
 * costs next to no allocations per extra response. This pins the
 * central claim -- the hot path is allocation-free in steady state --
 * as a test rather than a benchmark observation.
 */

#include "core/client.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.h"
#include "hw/machine.h"
#include "server/memcached.h"
#include "sim/simulation.h"
#include "util/alloc_counter.h"
#include "util/rng.h"
#include "util/strings.h"

namespace treadmill {
namespace core {
namespace {

/** Fixed-delay echo transmit: stamps NIC fields and reflects the
 *  request back to the instance without touching the heap. */
LoadTesterInstance::TransmitFn
echoTransmit(sim::Simulation &sim, LoadTesterInstance *&slot,
             SimDuration delay)
{
    return [&sim, &slot, delay](server::Request *req) {
        sim.schedule(delay, [&sim, &slot, req] {
            req->nicArrival = sim.now();
            req->nicDeparture = sim.now();
            req->clientNicArrival = sim.now();
            slot->onResponseDelivered(req);
        });
    };
}

TEST(ZeroAllocTest, WarmClientLoopRunsWithoutHeapAllocations)
{
    util::forceLinkAllocHook();
    ASSERT_TRUE(util::allocCountingActive())
        << "alloc hook not linked; build with TM_COUNT_ALLOCS=ON";

    sim::Simulation sim;
    ClientParams params;
    params.requestsPerSecond = 100000.0;
    params.collector.warmUpSamples = 200;
    params.collector.calibrationSamples = 300;
    params.collector.measurementSamples = 40000;

    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echoTransmit(sim, slot, microseconds(20)));
    slot = &inst;
    inst.start();

    // Warm-up: run through warm-up + calibration and well into the
    // measurement phase so every arena, slot vector, and histogram has
    // reached its steady-state footprint.
    sim.runUntil(milliseconds(100)); // ~10k requests at 100k rps
    ASSERT_GT(inst.collector().measured(), 5000u);
    ASSERT_FALSE(inst.done());

    const std::uint64_t allocsBefore = util::allocCount();
    const std::uint64_t freesBefore = util::freeCount();

    // Steady state: ~20k more requests end to end.
    sim.runUntil(milliseconds(300));

    const std::uint64_t allocDelta = util::allocCount() - allocsBefore;
    const std::uint64_t freeDelta = util::freeCount() - freesBefore;
    EXPECT_GT(inst.collector().measured(), 20000u);
    EXPECT_EQ(allocDelta, 0u)
        << "steady-state client loop performed " << allocDelta
        << " heap allocations (and " << freeDelta << " frees)";
}

/** Open-loop request source for a Memcached server: one pooled
 *  request every 20 us, half of them SETs, over a fixed key set with
 *  1 B - 2 KiB values. The sink releases each answered request. */
struct ServerLoad {
    static constexpr std::uint64_t kKeys = 512;

    ServerLoad(sim::Simulation &sim_, server::MemcachedServer &server_)
        : sim(sim_), server(server_)
    {
        server.setSink([this](server::Request *answer) {
            ++answered;
            pool.release(answer);
        });
    }

    sim::Simulation &sim;
    server::MemcachedServer &server;
    server::RequestPool pool;
    Rng rng{17};
    std::uint64_t issued = 0;
    std::uint64_t sets = 0;
    std::uint64_t answered = 0;

    void
    issue()
    {
        server::Request *req = pool.make();
        req->seqId = issued++;
        req->connectionId = req->seqId % 16;
        const bool isSet = rng.nextDouble() < 0.5;
        sets += isSet;
        req->op = isSet ? server::OpType::Set : server::OpType::Get;
        req->keyId = rng.nextBelow(kKeys);
        req->valueBytes =
            isSet ? 1 + static_cast<std::uint32_t>(rng.nextBelow(2048)) : 0;
        req->nicArrival = sim.now();
        server.receive(req);
        sim.schedule(microseconds(20), [this] { issue(); });
    }
};

TEST(ZeroAllocTest, WarmMemcachedServerRunsWithoutHeapAllocations)
{
    util::forceLinkAllocHook();
    ASSERT_TRUE(util::allocCountingActive());

    sim::Simulation sim;
    hw::HardwareConfig hwCfg;
    hwCfg.dvfs = hw::DvfsGovernor::Performance;
    hw::Machine machine(sim, hwCfg, 1);
    server::MemcachedServer server(machine, 1);
    ServerLoad load(sim, server);
    load.issue();

    // Warm-up: every key stored, every arena at its footprint.
    sim.runUntil(milliseconds(200)); // ~10k requests
    ASSERT_EQ(server.store().size(), ServerLoad::kKeys);

    const std::uint64_t allocsBefore = util::allocCount();
    const std::uint64_t answeredBefore = load.answered;
    sim.runUntil(milliseconds(1000)); // ~40k more requests
    const std::uint64_t allocDelta = util::allocCount() - allocsBefore;

    EXPECT_GT(load.answered - answeredBefore, 39000u);
    EXPECT_GT(load.sets, 20000u);
    EXPECT_EQ(allocDelta, 0u)
        << "warm Memcached server performed " << allocDelta
        << " heap allocations";
}

/** Responses the run's load testers received. */
std::uint64_t
responsesOf(const ExperimentResult &result, const ExperimentParams &params)
{
    const json::Value &counters = result.metrics.at("counters");
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < params.tester.clientMachines; ++i)
        n += static_cast<std::uint64_t>(
            counters.at(strprintf("client%zu.received", i)).asInt());
    return n;
}

/**
 * Heap allocations per response beyond a run's fixed setup: run
 * @p params with 4000 and then 8000 measurement samples per instance
 * and divide the difference in allocations by the difference in
 * responses.
 */
double
allocsPerExtraResponse(ExperimentParams params)
{
    params.collector.measurementSamples = 4000;
    const std::uint64_t before = util::allocCount();
    const ExperimentResult shortRun = runExperiment(params);
    const std::uint64_t mid = util::allocCount();
    params.collector.measurementSamples = 8000;
    const ExperimentResult longRun = runExperiment(params);
    const std::uint64_t after = util::allocCount();

    EXPECT_FALSE(shortRun.deadlineHit);
    EXPECT_FALSE(longRun.deadlineHit);
    const double extraAllocs =
        static_cast<double>(after - mid) - static_cast<double>(mid - before);
    const double extraResponses =
        static_cast<double>(responsesOf(longRun, params)) -
        static_cast<double>(responsesOf(shortRun, params));
    EXPECT_GT(extraResponses, 3000.0);
    return extraAllocs / extraResponses;
}

/** Server stalls of 3 ms every 40 ms from 5 ms on, 100 times, on
 *  @p backend (-1: the front server). */
fault::FaultPlan
periodicStall(int backend)
{
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::ServerStall;
    ev.backend = backend;
    ev.start = milliseconds(5);
    ev.duration = milliseconds(3);
    ev.period = milliseconds(40);
    ev.repeatCount = 100;
    fault::FaultPlan plan;
    plan.events.push_back(ev);
    return plan;
}

TEST(ZeroAllocTest, LongerExperimentsCostNoAllocationsPerResponse)
{
    util::forceLinkAllocHook();
    ASSERT_TRUE(util::allocCountingActive());

    // Routed: mcrouter -> balancer -> fabric -> backend shard and back,
    // with backend 2 stalling and no resilience policy.
    ExperimentParams routed;
    routed.kind = WorkloadKind::Mcrouter;
    routed.cluster.backends = 4;
    routed.cluster.replication = 2;
    routed.targetUtilization = 0.4;
    routed.seed = 17;
    routed.faultPlan = periodicStall(2);
    EXPECT_LT(allocsPerExtraResponse(routed), 0.01);

    // Classic: client -> Memcached server and back, the server
    // stalling.
    ExperimentParams classic;
    classic.targetUtilization = 0.4;
    classic.seed = 17;
    classic.faultPlan = periodicStall(-1);
    EXPECT_LT(allocsPerExtraResponse(classic), 0.01);

    // Resilient: routed over 8 backends with a 3 ms timeout and two
    // retries, so every logical request passes through the client's
    // pending table and the stalls time some of them out.
    ExperimentParams resilient;
    resilient.kind = WorkloadKind::Mcrouter;
    resilient.cluster.backends = 8;
    resilient.cluster.replication = 2;
    resilient.targetUtilization = 0.4;
    resilient.seed = 17;
    resilient.faultPlan = periodicStall(2);
    resilient.resilience.enabled = true;
    resilient.resilience.timeoutUs = 3000.0;
    resilient.resilience.maxRetries = 2;
    EXPECT_LT(allocsPerExtraResponse(resilient), 0.01);
}

TEST(ZeroAllocTest, RequestPoolRecyclesInsteadOfAllocating)
{
    util::forceLinkAllocHook();
    ASSERT_TRUE(util::allocCountingActive());

    server::RequestPool pool;
    // Warm with a working set larger than any steady-state window.
    std::vector<server::Request *> warm;
    for (int i = 0; i < 256; ++i)
        warm.push_back(pool.make());
    for (server::Request *r : warm)
        pool.release(r);

    const std::uint64_t before = util::allocCount();
    for (int round = 0; round < 1000; ++round) {
        server::Request *a = pool.make();
        server::Request *b = pool.make();
        a->seqId = static_cast<std::uint64_t>(round);
        b->seqId = a->seqId + 1;
        pool.release(a);
        pool.release(b);
    }
    EXPECT_EQ(util::allocCount() - before, 0u);
}

} // namespace
} // namespace core
} // namespace treadmill
