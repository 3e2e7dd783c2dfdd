/**
 * @file
 * Integration tests for request tracing through a full experiment:
 * complete span timelines, exact eight-row decomposition, capture
 * diagnostics, and determinism of the metrics snapshot under parallel
 * execution.
 */

#include <gtest/gtest.h>

#include "analysis/provenance.h"
#include "core/experiment.h"
#include "drive/repeat.h"
#include "obs/span.h"
#include "util/json.h"

namespace treadmill {
namespace core {
namespace {

ExperimentParams
tracedParams(std::uint64_t seed = 17)
{
    ExperimentParams p;
    p.targetUtilization = 0.5;
    p.collector.warmUpSamples = 200;
    p.collector.calibrationSamples = 200;
    p.collector.measurementSamples = 1200;
    p.seed = seed;
    p.trace.enabled = true;
    return p;
}

TEST(TimelineTest, EverySpanIsComplete)
{
    const auto result = runExperiment(tracedParams());
    ASSERT_FALSE(result.spans.empty());
    // intendedSend <= triggerAt <= clientSend <= nicArrival <=
    // workerStart <= workerEnd <= nicDeparture <= clientNicArrival <=
    // clientReceive for every completed request the recorder sampled.
    for (std::size_t k = 0; k < result.spans.size(); ++k)
        ASSERT_TRUE(obs::spanComplete(result.spans[k]))
            << "logical " << result.spans[k].trace.logicalSeqId;
}

TEST(TimelineTest, DecompositionSumsMatchEndToEnd)
{
    const auto result = runExperiment(tracedParams());
    ASSERT_FALSE(result.spans.empty());
    // Integer-ns rows telescope exactly: no epsilon.
    obs::CriticalPath path;
    for (std::size_t k = 0; k < result.spans.size(); ++k) {
        const obs::SpanView span = result.spans[k];
        ASSERT_TRUE(obs::extractCriticalPath(span, path));
        SimDuration sum = 0;
        for (SimDuration ns :
             obs::columnsNs(path, span.trace.winner, obs::Grouping::Row))
            sum += ns;
        EXPECT_EQ(sum, span.trace.clientReceive - span.trace.intendedSend);
    }
}

TEST(TimelineTest, DecompositionReportCoversFullPath)
{
    const auto result = runExperiment(tracedParams());
    const auto report = analysis::decompose(result.spans, obs::Grouping::Row);
    ASSERT_EQ(report.components.size(), 8u);
    EXPECT_EQ(report.requestCount, result.spans.size());
    double meanSum = 0.0;
    for (const auto &component : report.components)
        meanSum += component.meanUs;
    EXPECT_NEAR(meanSum, report.endToEndMeanUs,
                1e-6 * report.endToEndMeanUs);
    // The fixed 30 us kernel delay lives in "client deliver", so it
    // must be a visible component at moderate load.
    EXPECT_GT(report.components.back().meanUs, 25.0);
}

TEST(TimelineTest, SamplingThinsDeterministically)
{
    auto every = tracedParams();
    auto fourth = tracedParams();
    fourth.trace.sampleEvery = 4;
    const auto all = runExperiment(every);
    const auto sampled = runExperiment(fourth);
    ASSERT_FALSE(sampled.spans.empty());
    // Sampling is by completion order: exactly every fourth span of
    // the full set, with identical stamps.
    ASSERT_EQ(sampled.spans.size(), (all.spans.size() + 3) / 4);
    for (std::size_t k = 0; k < sampled.spans.size(); ++k) {
        const obs::SpanTrace &probe = sampled.spans[k].trace;
        const obs::SpanTrace &match = all.spans[4 * k].trace;
        EXPECT_EQ(match.logicalSeqId, probe.logicalSeqId);
        EXPECT_EQ(match.clientIndex, probe.clientIndex);
        EXPECT_EQ(match.clientReceive, probe.clientReceive);
        EXPECT_EQ(match.winning.workerStart, probe.winning.workerStart);
    }
}

TEST(TimelineTest, TracingDoesNotPerturbTheRun)
{
    auto off = tracedParams();
    off.trace.enabled = false;
    const auto traced = runExperiment(tracedParams());
    const auto plain = runExperiment(off);
    EXPECT_TRUE(plain.spans.empty());
    EXPECT_EQ(traced.groundTruthUs, plain.groundTruthUs);
    EXPECT_EQ(
        traced.aggregatedQuantile(0.99, AggregationKind::PerInstance),
        plain.aggregatedQuantile(0.99, AggregationKind::PerInstance));
}

TEST(TimelineTest, CaptureDiagnosticsAreClean)
{
    const auto result = runExperiment(tracedParams());
    // The capture matched every response; whatever was in flight at
    // the end is bounded by teardown residue, not leak-sized.
    EXPECT_EQ(result.captureUnmatchedResponses, 0u);
    EXPECT_FALSE(result.deadlineHit);
    EXPECT_LT(result.captureOutstanding, 1000u);
}

TEST(TimelineTest, MetricsSnapshotPresentAndSane)
{
    const auto result = runExperiment(tracedParams());
    ASSERT_TRUE(result.metrics.isObject());
    const json::Value &counters = result.metrics.at("counters");
    EXPECT_GT(counters.at("sim.events_executed").asInt(), 0);
    EXPECT_GT(counters.at("server.served").asInt(), 0);
    EXPECT_GT(counters.at("client0.issued").asInt(), 0);
    const json::Value &hists = result.metrics.at("histograms");
    EXPECT_GT(hists.at("server.service_us").at("count").asInt(), 0);
    EXPECT_GE(hists.at("server.queue_wait_us").at("p99").asNumber(),
              0.0);
}

TEST(TimelineTest, MetricsAreBitExactAcrossThreadCounts)
{
    const auto runAll = [](unsigned threads) {
        drive::Repetitions reps;
        reps.paramsOf = [](std::size_t k) { return tracedParams(21 + k); };
        reps.maxRuns = 4;
        reps.parallelism.threads = threads;
        std::vector<ExperimentResult> results;
        drive::repeatRuns(reps, [&results](std::size_t,
                                           const ExperimentParams &,
                                           const ExperimentResult &r) {
            results.push_back(r);
        });
        return results;
    };
    const auto serial = runAll(1);
    const auto parallel = runAll(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        // Registry is per-Simulation (seed-isolated), so the full
        // snapshot -- every counter, gauge, and histogram -- is
        // identical regardless of the thread count.
        EXPECT_EQ(serial[i].metrics.dump(),
                  parallel[i].metrics.dump());
        ASSERT_EQ(serial[i].spans.size(), parallel[i].spans.size());
        for (std::size_t t = 0; t < serial[i].spans.size(); ++t)
            EXPECT_EQ(serial[i].spans[t].trace.clientReceive,
                      parallel[i].spans[t].trace.clientReceive);
    }
}

} // namespace
} // namespace core
} // namespace treadmill
