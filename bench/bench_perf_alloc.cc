/**
 * @file
 * Allocation-count benchmarks for the simulator hot path.
 *
 * This binary links the interposing operator new/delete
 * (treadmill_alloc_hook), so every heap allocation in the process is
 * counted. Each benchmark reports allocations per simulated request
 * (or per event) as a user counter; the headline number the PR tracks
 * is allocs_per_request == 0 in the warm client loop.
 *
 * Timing numbers from this binary are NOT comparable to
 * bench_perf_sim: the interposer adds a few nanoseconds to every
 * allocation that does happen. Use bench_perf_sim for speed,
 * bench_perf_alloc for allocation behavior.
 */

#include <benchmark/benchmark.h>

#include <utility>

#include "core/client.h"
#include "core/experiment.h"
#include "sim/simulation.h"
#include "util/alloc_counter.h"

using namespace treadmill;

namespace {

/**
 * Steady-state client loop: a load-tester instance against a
 * fixed-delay echo transmit. After a warm phase, each iteration
 * advances the simulation one millisecond and attributes the observed
 * allocation delta to the responses completed in that window.
 */
void
BM_ClientLoopAllocsPerRequest(benchmark::State &state)
{
    util::forceLinkAllocHook();

    sim::Simulation sim;
    core::ClientParams params;
    params.requestsPerSecond = 100000.0;
    params.collector.warmUpSamples = 200;
    params.collector.calibrationSamples = 300;
    params.collector.measurementSamples = 100000000; // never finishes
    core::LoadTesterInstance *slot = nullptr;
    core::LoadTesterInstance inst(
        sim, params, core::WorkloadConfig{},
        [&sim, &slot](server::Request *req) {
            sim.schedule(microseconds(20), [&sim, &slot, req] {
                req->nicArrival = sim.now();
                req->nicDeparture = sim.now();
                req->clientNicArrival = sim.now();
                slot->onResponseDelivered(req);
            });
        });
    slot = &inst;
    inst.start();

    // Warm: pools, queue slots, collector buffers, histograms.
    SimTime horizon = milliseconds(100);
    sim.runUntil(horizon);

    const obs::Counter &received = sim.metrics().counter("client0.received");
    std::uint64_t allocs = 0;
    std::uint64_t requests = 0;
    for (auto _ : state) {
        const std::uint64_t allocsBefore = util::allocCount();
        const std::uint64_t receivedBefore = received.value();
        horizon += milliseconds(1);
        sim.runUntil(horizon);
        allocs += util::allocCount() - allocsBefore;
        requests += received.value() - receivedBefore;
    }
    state.counters["allocs_per_request"] = benchmark::Counter(
        requests == 0 ? 0.0
                      : static_cast<double>(allocs) /
                            static_cast<double>(requests));
    state.counters["requests"] =
        benchmark::Counter(static_cast<double>(requests));
}
BENCHMARK(BM_ClientLoopAllocsPerRequest)->Unit(benchmark::kMillisecond);

/** Warm event-queue churn: push/pop against a steady backlog must not
 *  allocate once the slot and heap vectors have grown to size. */
void
BM_EventQueueChurnAllocs(benchmark::State &state)
{
    util::forceLinkAllocHook();

    sim::EventQueue queue;
    std::uint64_t t = 0;
    for (int i = 0; i < 4096; ++i) {
        queue.push((t * 7919) % 1000 + t, [] {});
        ++t;
    }

    std::uint64_t allocs = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        const std::uint64_t before = util::allocCount();
        for (int i = 0; i < 1024; ++i) {
            queue.push((t * 7919) % 1000 + t, [] {});
            ++t;
            SimTime when = 0;
            queue.pop(when);
            benchmark::DoNotOptimize(when);
        }
        allocs += util::allocCount() - before;
        ops += 1024;
    }
    state.counters["allocs_per_op"] = benchmark::Counter(
        ops == 0 ? 0.0
                 : static_cast<double>(allocs) /
                       static_cast<double>(ops));
}
BENCHMARK(BM_EventQueueChurnAllocs);

/** Whole small experiment, for context: total allocations per request
 *  end to end (setup + warm-up included, so nonzero by design). */
void
BM_FullExperimentAllocsPerRequest(benchmark::State &state)
{
    util::forceLinkAllocHook();

    std::uint64_t allocs = 0;
    std::uint64_t requests = 0;
    for (auto _ : state) {
        const std::uint64_t before = util::allocCount();
        core::ExperimentParams params;
        params.targetUtilization = 0.5;
        params.collector.warmUpSamples = 100;
        params.collector.calibrationSamples = 100;
        params.collector.measurementSamples = 1000;
        params.seed = 3;
        const auto result = core::runExperiment(params);
        benchmark::DoNotOptimize(result.achievedRps);
        allocs += util::allocCount() - before;
        requests += 1000 * 8;
    }
    state.counters["allocs_per_request"] = benchmark::Counter(
        static_cast<double>(allocs) / static_cast<double>(requests));
}
BENCHMARK(BM_FullExperimentAllocsPerRequest)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
