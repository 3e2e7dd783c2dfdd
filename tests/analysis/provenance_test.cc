/** @file Unit tests for the tail-provenance report. */

#include "analysis/provenance.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/json.h"

namespace treadmill {
namespace analysis {
namespace {

/** A cluster span with a configurable backend-queue wait on shard
 *  @p backend; the rest of the path is a fixed ~10.75 us pipeline. */
obs::SpanTrace
clusterSpan(SimDuration backendQueueNs, std::int32_t backend = 2)
{
    obs::AttemptSpan a;
    a.seqId = 1;
    a.won = true;
    a.backendId = backend;
    const SimTime base = 1'000;
    a.triggerAt = base;
    a.clientSend = base + 500;
    a.nicArrival = base + 2'500;
    a.workerStart = base + 3'200;
    a.lbArrival = base + 3'600;
    a.lbDispatch = base + 3'900;
    a.backendNicArrival = base + 4'400;
    a.backendWorkerStart = base + 4'400 + backendQueueNs;
    a.backendWorkerEnd = a.backendWorkerStart + 2'000;
    a.backendNicDeparture = a.backendWorkerEnd + 200;
    a.routerReturn = a.backendNicDeparture + 500;
    a.workerEnd = a.routerReturn + 500;
    a.nicDeparture = a.workerEnd + 300;
    a.clientNicArrival = a.nicDeparture + 2'000;
    a.clientReceive = a.clientNicArrival + 250;

    obs::SpanTrace s;
    s.logicalSeqId = 1;
    s.intendedSend = a.triggerAt;
    s.clientReceive = a.clientReceive;
    s.attemptCount = 1;
    s.stored = 1;
    s.winner = 0;
    s.winning = a;
    return s;
}

/** 95 fast spans plus 5 stuck behind shard 2's queue. */
obs::SpanLog
bimodalSpans()
{
    obs::SpanLog spans;
    for (int i = 0; i < 95; ++i)
        spans.push({clusterSpan(100, i % 4), nullptr});
    for (int i = 0; i < 5; ++i)
        spans.push({clusterSpan(1'000'000, 2), nullptr});
    return spans;
}

TEST(ProvenanceTest, TailBandIsolatesTheSlowShard)
{
    const auto report = tailProvenance(bimodalSpans(), {0.5, 0.99});
    EXPECT_EQ(report.totalSpans, 100u);
    EXPECT_EQ(report.decomposed, 100u);

    const auto &p99 = report.at(0.99);
    EXPECT_EQ(p99.dominant().kind, obs::SegmentKind::BackendQueue);
    ASSERT_FALSE(p99.backends.empty());
    EXPECT_EQ(p99.backends.front().backendId, 2);
    EXPECT_GT(p99.backends.front().share, 0.5);
    EXPECT_GT(p99.bandLowUs, 100.0); // The band is all slow spans.

    const auto &p50 = report.at(0.5);
    EXPECT_NE(p50.dominant().kind, obs::SegmentKind::BackendQueue);
    EXPECT_LT(p50.bandHighUs, 100.0);
}

TEST(ProvenanceTest, SharesSumToOneWithinABand)
{
    const auto report = tailProvenance(bimodalSpans(), {0.99});
    const auto &q = report.at(0.99);
    double segmentShares = 0.0;
    for (const auto &s : q.segments)
        segmentShares += s.share;
    EXPECT_NEAR(segmentShares, 1.0, 1e-9);
    double backendShares = 0.0;
    for (const auto &b : q.backends)
        backendShares += b.share;
    EXPECT_NEAR(backendShares, 1.0, 1e-9);
}

TEST(ProvenanceTest, IncompleteSpansAreCountedNotDecomposed)
{
    obs::SpanLog spans = bimodalSpans();
    obs::SpanTrace broken = clusterSpan(100);
    broken.winning.won = false; // Incomplete.
    spans.push({broken, nullptr});
    const auto report = tailProvenance(spans, {0.5});
    EXPECT_EQ(report.totalSpans, 101u);
    EXPECT_EQ(report.decomposed, 100u);
}

TEST(ProvenanceTest, ThrowsWhenNothingDecomposes)
{
    obs::SpanLog bad;
    const obs::SpanTrace empty;
    for (int i = 0; i < 3; ++i)
        bad.push({empty, nullptr});
    EXPECT_THROW(tailProvenance(bad, {0.5}), NumericalError);
    // Bad quantiles fail first: a ConfigError here, not the
    // NumericalError above, shows no path was extracted.
    EXPECT_THROW(tailProvenance(bad, {}), ConfigError);
    for (double tau : {0.0, 1.0, -0.5, 1.5, std::nan("")}) {
        EXPECT_THROW(tailProvenance(bad, {0.5, tau}), ConfigError)
            << tau;
    }
}

TEST(ProvenanceTest, AtThrowsForUnknownQuantile)
{
    const auto report = tailProvenance(bimodalSpans(), {0.5});
    EXPECT_THROW(report.at(0.99), NumericalError);
}

TEST(ProvenanceTest, DecomposeSegmentMeansSumToEndToEnd)
{
    const auto report =
        decompose(bimodalSpans(), obs::Grouping::Segment, {0.5, 0.99});
    ASSERT_EQ(report.components.size(), obs::kSegmentKindCount);
    EXPECT_EQ(report.requestCount, 100u);
    double meanSum = 0.0;
    for (const auto &component : report.components)
        meanSum += component.meanUs;
    EXPECT_NEAR(meanSum, report.endToEndMeanUs,
                1e-9 * report.endToEndMeanUs);
}

TEST(ProvenanceTest, RenderAndJsonCarryEveryQuantile)
{
    const auto report = tailProvenance(bimodalSpans(), {0.5, 0.99});
    const std::string table = renderProvenanceTable(report);
    EXPECT_NE(table.find("P50 band"), std::string::npos);
    EXPECT_NE(table.find("P99 band"), std::string::npos);
    EXPECT_NE(table.find("backend queue"), std::string::npos);

    const json::Value doc = provenanceToJson(report);
    EXPECT_EQ(doc.at("schema").asString(), "provenance/1");
    EXPECT_EQ(doc.at("quantiles").asArray().size(), 2u);
    const json::Value &q99 = doc.at("quantiles").asArray()[1];
    EXPECT_DOUBLE_EQ(q99.at("tau").asNumber(), 0.99);
    EXPECT_EQ(q99.at("segments")
                  .asArray()
                  .front()
                  .at("segment")
                  .asString(),
              "backend queue");
}

} // namespace
} // namespace analysis
} // namespace treadmill
