/**
 * @file
 * Performance microbenchmarks for the simulation substrate: event
 * queue throughput and a complete small load-test experiment. The
 * attribution pipeline runs hundreds of experiments, so end-to-end
 * experiment cost is the budget that matters.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "core/experiment.h"
#include "drive/repeat.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"

using namespace treadmill;

namespace {

void
BM_EventQueuePushPop(benchmark::State &state)
{
    sim::EventQueue queue;
    std::uint64_t t = 0;
    for (auto _ : state) {
        queue.push((t * 7919) % 1000 + t, [] {});
        ++t;
        if (queue.size() > 1024) {
            SimTime when = 0;
            queue.pop(when);
            benchmark::DoNotOptimize(when);
        }
    }
}
BENCHMARK(BM_EventQueuePushPop);

/**
 * Regression benchmark for the O(1) cancel fix: with state.range(0)
 * pending timeout events (up to 10^5), each iteration cancels one
 * pending event and schedules a replacement, the per-request timeout
 * pattern. Before the fix cancel() scanned the whole heap
 * (quadratic under load); the reported complexity must stay O(1) --
 * per-cancel time flat as the pending count grows 100x.
 */
void
BM_EventQueueCancelWithPendingTimeouts(benchmark::State &state)
{
    const auto pending = static_cast<std::uint64_t>(state.range(0));
    sim::EventQueue queue;
    std::vector<sim::EventId> ids;
    ids.reserve(pending);
    for (std::uint64_t i = 0; i < pending; ++i)
        ids.push_back(queue.push((i * 7919) % 100000, [] {}));

    std::uint64_t t = 0;
    std::size_t victim = 0;
    for (auto _ : state) {
        // Cancel one pending timeout, then re-arm it.
        benchmark::DoNotOptimize(queue.cancel(ids[victim]));
        ids[victim] = queue.push((t * 104729) % 100000, [] {});
        victim = (victim + 1) % ids.size();
        ++t;
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EventQueueCancelWithPendingTimeouts)
    ->RangeMultiplier(10)
    ->Range(1000, 100000)
    ->Complexity(benchmark::o1);

void
BM_SimulationEventChain(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulation sim;
        std::uint64_t fired = 0;
        std::function<void()> chain = [&] {
            if (++fired < 10000)
                sim.schedule(100, chain);
        };
        sim.schedule(100, chain);
        sim.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulationEventChain);

void
BM_FullExperiment(benchmark::State &state)
{
    for (auto _ : state) {
        core::ExperimentParams params;
        params.targetUtilization = 0.5;
        params.collector.warmUpSamples = 100;
        params.collector.calibrationSamples = 100;
        params.collector.measurementSamples =
            static_cast<std::uint64_t>(state.range(0));
        params.seed = 3;
        const auto result = core::runExperiment(params);
        benchmark::DoNotOptimize(result.achievedRps);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * state.range(0) * 8));
}
BENCHMARK(BM_FullExperiment)->Unit(benchmark::kMillisecond)
    ->Arg(1000)->Arg(4000);

/**
 * The parallel experiment fan-out: a fixed count of 8 seed-isolated
 * experiments run through drive::repeatRuns with state.range(0) worker
 * threads. Comparing the timings across thread counts gives the
 * wall-clock speedup of the loop's parallelFor on this machine (the
 * results themselves are bit-exact at every thread count; the
 * determinism suite pins that).
 */
void
BM_ExperimentBatchParallel(benchmark::State &state)
{
    drive::Repetitions batch;
    batch.paramsOf = [](std::size_t i) {
        core::ExperimentParams params;
        params.targetUtilization = 0.5;
        params.collector.warmUpSamples = 100;
        params.collector.calibrationSamples = 100;
        params.collector.measurementSamples = 1000;
        params.seed = 17 + i * 101;
        return params;
    };
    batch.maxRuns = 8;
    batch.parallelism.threads = static_cast<unsigned>(state.range(0));
    double simSeconds = 0.0;
    for (auto _ : state) {
        const std::vector<double> p99s = drive::repeatRuns(
            batch, [&simSeconds](std::size_t, const core::ExperimentParams &,
                                 const core::ExperimentResult &r) {
                simSeconds += toSeconds(r.simulatedTime);
            });
        benchmark::DoNotOptimize(p99s.front());
    }
    state.counters["sim_s_per_wall_s"] = benchmark::Counter(
        simSeconds, benchmark::Counter::kIsRate);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_ExperimentBatchParallel)
    ->Unit(benchmark::kMillisecond)
    // Work happens on the fan-out's threads; rate counters must divide by
    // wall time, not the (near-idle) main thread's CPU time.
    ->UseRealTime()
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);

} // namespace

BENCHMARK_MAIN();
