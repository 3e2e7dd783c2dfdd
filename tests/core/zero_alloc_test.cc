/**
 * @file
 * Steady-state allocation assertions for the client request loop and
 * the server data path.
 *
 * Built only under -DTM_COUNT_ALLOCS=ON: the binary links the global
 * operator new/delete interposer (util/alloc_hook.cc) and asserts that
 * once the request pool, event-queue slots, collector buffers and KV
 * store are warm, driving tens of thousands of requests through a
 * load-tester instance or a Memcached server performs zero heap
 * allocations. This pins the central claim -- the hot path is
 * allocation-free in steady state -- as a test rather than a
 * benchmark observation.
 */

#include "core/client.h"

#include <gtest/gtest.h>

#include <vector>

#include "hw/machine.h"
#include "server/memcached.h"
#include "sim/simulation.h"
#include "util/alloc_counter.h"
#include "util/rng.h"

namespace treadmill {
namespace core {
namespace {

/** Fixed-delay echo transmit: stamps NIC fields and reflects the
 *  request back to the instance without touching the heap. */
LoadTesterInstance::TransmitFn
echoTransmit(sim::Simulation &sim, LoadTesterInstance *&slot,
             SimDuration delay)
{
    return [&sim, &slot, delay](server::RequestPtr req) {
        sim.schedule(delay, [&sim, &slot,
                             req = std::move(req)]() mutable {
            req->nicArrival = sim.now();
            req->nicDeparture = sim.now();
            req->clientNicArrival = sim.now();
            slot->onResponseDelivered(std::move(req));
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
 *  1 B - 2 KiB values. */
struct ServerLoad {
    static constexpr std::uint64_t kKeys = 512;

    ServerLoad(sim::Simulation &sim_, server::MemcachedServer &server_)
        : sim(sim_), server(server_)
    {
    }

    sim::Simulation &sim;
    server::MemcachedServer &server;
    server::RequestPool pool;
    Rng rng{17};
    std::uint64_t issued = 0;
    std::uint64_t answered = 0;

    void
    issue()
    {
        auto req = pool.make();
        req->seqId = issued++;
        req->connectionId = req->seqId % 16;
        const bool isSet = rng.nextDouble() < 0.5;
        req->op = isSet ? server::OpType::Set : server::OpType::Get;
        req->keyId = rng.nextBelow(kKeys);
        req->valueBytes =
            isSet ? 1 + static_cast<std::uint32_t>(rng.nextBelow(2048)) : 0;
        req->nicArrival = sim.now();
        server.receive(std::move(req),
                       [this](const server::RequestPtr &) { ++answered; });
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
    hw::Machine machine(sim, hw::MachineSpec{}, hwCfg, 1);
    server::MemcachedServer server(machine, server::MemcachedParams{}, 1);
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
    EXPECT_GT(server.store().sets(), 20000u);
    EXPECT_EQ(allocDelta, 0u)
        << "warm Memcached server performed " << allocDelta
        << " heap allocations";
}

TEST(ZeroAllocTest, RequestPoolRecyclesInsteadOfAllocating)
{
    util::forceLinkAllocHook();
    ASSERT_TRUE(util::allocCountingActive());

    server::RequestPool pool;
    // Warm with a working set larger than any steady-state window.
    {
        std::vector<server::RequestPtr> warm;
        for (int i = 0; i < 256; ++i)
            warm.push_back(pool.make());
    }

    const std::uint64_t before = util::allocCount();
    for (int round = 0; round < 1000; ++round) {
        auto a = pool.make();
        auto b = pool.make();
        a->seqId = static_cast<std::uint64_t>(round);
        b->seqId = a->seqId + 1;
    }
    EXPECT_EQ(util::allocCount() - before, 0u);
}

} // namespace
} // namespace core
} // namespace treadmill
