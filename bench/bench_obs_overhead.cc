/**
 * @file
 * Observability overhead microbenchmarks.
 *
 * The metrics registry and span recorder sit on the simulation's hot
 * paths (every event, packet, and request), so their cost budget is
 * strict: with tracing disabled an instrumented experiment must run
 * within ~5% of the pre-instrumentation baseline. The experiment pair
 * below measures that directly (trace off vs tracing every request);
 * the micro-ops quantify the per-call costs the budget is built from,
 * and BM_TailProvenance the per-run cost of reading the spans back.
 */

#include <benchmark/benchmark.h>

#include "analysis/provenance.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "util/rng.h"

using namespace treadmill;

namespace {

core::ExperimentParams
overheadParams()
{
    core::ExperimentParams params;
    params.targetUtilization = 0.5;
    params.collector.warmUpSamples = 100;
    params.collector.calibrationSamples = 100;
    params.collector.measurementSamples = 2000;
    params.seed = 29;
    return params;
}

/** Baseline: metrics always on (they are unconditional), tracing off.
 *  Compare against BM_ExperimentTraceEveryRequest for the recorder's
 *  marginal cost, and against historical BM_FullExperiment numbers for
 *  the registry's. */
void
BM_ExperimentTraceOff(benchmark::State &state)
{
    for (auto _ : state) {
        auto params = overheadParams();
        const auto result = core::runExperiment(params);
        benchmark::DoNotOptimize(result.achievedRps);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 2000 * 8));
}
BENCHMARK(BM_ExperimentTraceOff)->Unit(benchmark::kMillisecond);

/** Worst case: record every completed request's span tree. */
void
BM_ExperimentTraceEveryRequest(benchmark::State &state)
{
    for (auto _ : state) {
        auto params = overheadParams();
        params.trace.enabled = true;
        params.trace.sampleEvery = 1;
        const auto result = core::runExperiment(params);
        benchmark::DoNotOptimize(result.spans.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 2000 * 8));
}
BENCHMARK(BM_ExperimentTraceEveryRequest)
    ->Unit(benchmark::kMillisecond);

/** Full observability: every span retained *and* the telemetry
 *  sampler ticking every simulated millisecond. */
void
BM_ExperimentSpansAndTelemetry(benchmark::State &state)
{
    for (auto _ : state) {
        auto params = overheadParams();
        params.trace.enabled = true;
        params.trace.sampleEvery = 1;
        params.telemetry.enabled = true;
        params.telemetry.periodUs = 1000.0;
        const auto result = core::runExperiment(params);
        benchmark::DoNotOptimize(result.spans.size());
        benchmark::DoNotOptimize(result.telemetry.ticks());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 2000 * 8));
}
BENCHMARK(BM_ExperimentSpansAndTelemetry)
    ->Unit(benchmark::kMillisecond);

/** A held counter reference bump: the hot-path pattern everywhere.
 *  The step is a run-time value and every add is stored, so the loop
 *  cannot fold into one addition. */
void
BM_CounterAdd(benchmark::State &state)
{
    obs::MetricsRegistry registry;
    obs::Counter &counter = registry.counter("bench.counter");
    std::uint64_t step = 1;
    benchmark::DoNotOptimize(step);
    for (auto _ : state) {
        counter.add(step);
        benchmark::DoNotOptimize(&counter);
        benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterAdd);

/** Histogram record: frexp bucketing + exact moment updates. */
void
BM_HistogramRecord(benchmark::State &state)
{
    obs::MetricsRegistry registry;
    obs::Histogram &hist = registry.histogram("bench.hist");
    double v = 1.0;
    for (auto _ : state) {
        hist.record(v);
        v = v < 1e6 ? v * 1.1 : 1.0;
    }
    benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramRecord);

/** Name lookup (map find): the cost callers avoid by holding refs. */
void
BM_RegistryLookup(benchmark::State &state)
{
    obs::MetricsRegistry registry;
    registry.counter("bench.lookup");
    for (auto _ : state)
        benchmark::DoNotOptimize(
            registry.counter("bench.lookup").value());
}
BENCHMARK(BM_RegistryLookup);

/** SpanRecorder::record of a two-attempt span: the per-completion
 *  cost when span tracing is on -- the record with its winner inline
 *  into reserved storage, plus one loser into the side buffer. Each
 *  batch is handed off and re-reserved outside the timed region, as a
 *  run's harness reserves once per run. */
void
BM_SpanRecord(benchmark::State &state)
{
    constexpr std::size_t kBatch = 1u << 16;
    obs::TraceConfig cfg;
    cfg.enabled = true;
    obs::SpanRecorder recorder(cfg);
    recorder.reserveFor(kBatch);
    obs::SpanTrace span;
    span.intendedSend = 1;
    span.clientReceive = 100;
    span.attemptCount = 2;
    span.stored = 2;
    span.winner = 1;
    span.winning.won = true;
    const obs::AttemptSpan loser;
    for (auto _ : state) {
        benchmark::DoNotOptimize(recorder.record({span, &loser}));
        if (recorder.spans().size() >= kBatch) {
            state.PauseTiming();
            recorder.takeSpans();
            recorder.reserveFor(kBatch);
            state.ResumeTiming();
        }
    }
}
BENCHMARK(BM_SpanRecord);

/** analysis::tailProvenance over one traced run's worth of cluster
 *  spans at P50 and P99: ~25 K single-attempt spans whose backend
 *  queue waits spread the latencies. */
void
BM_TailProvenance(benchmark::State &state)
{
    constexpr std::size_t kSpans = 25'000;
    obs::SpanLog spans;
    spans.reserve(kSpans);
    Rng rng(17);
    for (std::size_t i = 0; i < kSpans; ++i) {
        obs::AttemptSpan a;
        a.won = true;
        a.backendId = static_cast<std::int32_t>(rng.nextBelow(4));
        a.triggerAt = 1'000;
        a.clientSend = 1'500;
        a.nicArrival = 3'500;
        a.workerStart = 4'200;
        a.lbArrival = 4'600;
        a.lbDispatch = 4'900;
        a.backendNicArrival = 5'400;
        a.backendWorkerStart =
            a.backendNicArrival +
            static_cast<SimDuration>(rng.nextBelow(20'000));
        a.backendWorkerEnd = a.backendWorkerStart + 2'000;
        a.backendNicDeparture = a.backendWorkerEnd + 200;
        a.routerReturn = a.backendNicDeparture + 500;
        a.workerEnd = a.routerReturn + 500;
        a.nicDeparture = a.workerEnd + 300;
        a.clientNicArrival = a.nicDeparture + 2'000;
        a.clientReceive = a.clientNicArrival + 250;
        obs::SpanTrace s;
        s.logicalSeqId = i;
        s.intendedSend = a.triggerAt;
        s.clientReceive = a.clientReceive;
        s.attemptCount = 1;
        s.stored = 1;
        s.winner = 0;
        s.winning = a;
        spans.push({s, nullptr});
    }
    const std::vector<double> taus = {0.5, 0.99};
    for (auto _ : state) {
        const auto report = analysis::tailProvenance(spans, taus);
        benchmark::DoNotOptimize(report.quantiles.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kSpans));
}
BENCHMARK(BM_TailProvenance)->Unit(benchmark::kMillisecond);

/** One telemetry tick over a typical probe set (eight gauges). */
void
BM_TelemetrySample(benchmark::State &state)
{
    obs::TelemetryConfig cfg;
    cfg.enabled = true;
    cfg.maxSamples = 1u << 20;
    obs::TelemetrySampler sampler(cfg);
    double gauge = 0.0;
    for (int p = 0; p < 8; ++p)
        sampler.addProbe("bench.gauge",
                         [&gauge] { return gauge; });
    SimTime now = 0;
    for (auto _ : state) {
        gauge += 1.0;
        now += 1'000'000;
        sampler.sample(now);
        if (sampler.full())
            sampler.takeSeries();
    }
    benchmark::DoNotOptimize(sampler.series().ticks());
}
BENCHMARK(BM_TelemetrySample);

} // namespace

BENCHMARK_MAIN();
