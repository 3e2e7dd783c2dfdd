/** @file Unit tests for attempt spans, their lean storage layout,
 *  critical-path extraction, the cluster-aware decomposition, the
 *  eight-row grouping, and the exports. */

#include "obs/span.h"

#include <gtest/gtest.h>

#include <array>

#include "util/json.h"

namespace treadmill {
namespace obs {
namespace {

/** A span as the client holds it: every stored attempt in send
 *  order, winner included. */
struct HeldSpan {
    SpanTrace trace;
    std::vector<AttemptSpan> attempts;
};

/** Log @p spans split as the client splits them: the attempt at
 *  inlineIndex() inline, the others in order as losers. */
SpanLog
logOf(const std::vector<HeldSpan> &spans)
{
    SpanLog log;
    for (HeldSpan s : spans) {
        std::vector<AttemptSpan> losers;
        for (std::uint32_t i = 0; i < s.attempts.size(); ++i) {
            if (i == s.trace.inlineIndex())
                s.trace.winning = s.attempts[i];
            else
                losers.push_back(s.attempts[i]);
        }
        log.push({s.trace, losers.data()});
    }
    return log;
}

/** A complete classic (non-cluster) winning attempt. */
AttemptSpan
classicAttempt(SimTime base = 1'000)
{
    AttemptSpan a;
    a.seqId = 7;
    a.won = true;
    a.triggerAt = base;
    a.clientSend = base + 500;
    a.nicArrival = base + 2'500;
    a.workerStart = base + 3'200;
    a.workerEnd = base + 8'200;
    a.nicDeparture = base + 8'500;
    a.clientNicArrival = base + 10'500;
    a.clientReceive = base + 10'750;
    return a;
}

/** The same winner routed through the cluster tier. */
AttemptSpan
clusterAttempt(SimTime base = 1'000)
{
    AttemptSpan a = classicAttempt(base);
    a.backendId = 2;
    a.lbArrival = base + 3'600;
    a.lbDispatch = base + 3'900;
    a.backendNicArrival = base + 4'400;
    a.backendWorkerStart = base + 5'000;
    a.backendWorkerEnd = base + 7'000;
    a.backendNicDeparture = base + 7'200;
    a.routerReturn = base + 7'700;
    return a;
}

HeldSpan
singleAttemptSpan(AttemptSpan winner)
{
    HeldSpan s;
    s.trace.logicalSeqId = winner.seqId;
    s.trace.intendedSend = winner.triggerAt;
    s.trace.clientReceive = winner.clientReceive;
    s.trace.attemptCount = 1;
    s.trace.stored = 1;
    s.trace.winner = 0;
    s.attempts = {winner};
    return s;
}

/** Primary timed out at 5'000, retry won. */
HeldSpan
retrySpan()
{
    HeldSpan s;
    s.trace.logicalSeqId = 11;
    s.trace.intendedSend = 1'000;
    s.trace.attemptCount = 2;
    s.trace.stored = 2;
    s.trace.winner = 1;

    AttemptSpan primary;
    primary.seqId = 11;
    primary.backendId = 3;
    primary.triggerAt = 1'000;
    primary.clientSend = 1'400;
    primary.timeoutAt = 5'000;
    primary.nicArrival = 2'000; // In flight, never answered.

    AttemptSpan retry = classicAttempt(5'600); // Backoff 5000->5600.
    retry.seqId = 11;
    retry.attempt = 1;
    retry.cause = AttemptCause::Retry;
    s.attempts = {primary, retry};
    s.trace.clientReceive = retry.clientReceive;
    return s;
}

/** Primary unanswered, hedge fired at 4'000 and won. */
HeldSpan
hedgeSpan()
{
    HeldSpan s;
    s.trace.logicalSeqId = 13;
    s.trace.intendedSend = 1'000;
    s.trace.attemptCount = 2;
    s.trace.stored = 2;
    s.trace.winner = 1;

    AttemptSpan primary;
    primary.seqId = 13;
    primary.backendId = 2;
    primary.triggerAt = 1'000;
    primary.clientSend = 1'300;
    primary.nicArrival = 2'100;

    AttemptSpan hedge = classicAttempt(4'000);
    hedge.seqId = 13;
    hedge.attempt = 1;
    hedge.cause = AttemptCause::Hedge;
    hedge.hedged = true;
    hedge.backendId = 0;
    s.attempts = {primary, hedge};
    s.trace.clientReceive = hedge.clientReceive;
    return s;
}

/**
 * @p attemptCount attempts sent, the first min(attemptCount, 8)
 * retained, one 1 ms apart, each on its own seq. Past the retention
 * cap the winner is the last retained slot, as the client stores it.
 */
HeldSpan
chainSpan(std::uint32_t attemptCount, std::uint32_t winner)
{
    HeldSpan s;
    s.trace.logicalSeqId = 40 + attemptCount;
    s.trace.clientIndex = 3;
    s.trace.intendedSend = 1'000;
    s.trace.attemptCount = attemptCount;
    s.trace.stored = std::min(attemptCount, kMaxSpanAttempts);
    s.trace.winner = static_cast<std::int32_t>(winner);
    for (std::uint32_t i = 0; i < s.trace.stored; ++i) {
        AttemptSpan a =
            classicAttempt(1'000 + static_cast<SimTime>(i) * 1'000'000);
        a.seqId = 100 + i;
        a.attempt = i;
        a.cause = i == 0 ? AttemptCause::Scheduled : AttemptCause::Retry;
        a.won = i == winner;
        if (i != winner)
            a.clientReceive = kNoTime; // Losers never answered.
        s.attempts.push_back(a);
    }
    s.trace.clientReceive = s.attempts[winner].clientReceive;
    return s;
}

TEST(SpanTest, AttemptMonotonicSkipsUnsetStamps)
{
    AttemptSpan partial;
    partial.triggerAt = 100;
    partial.clientSend = 200;
    EXPECT_TRUE(attemptMonotonic(partial));

    partial.nicArrival = 150; // Before clientSend.
    EXPECT_FALSE(attemptMonotonic(partial));
}

TEST(SpanTest, AttemptMonotonicChecksTimeoutAgainstSend)
{
    AttemptSpan a;
    a.triggerAt = 100;
    a.clientSend = 200;
    a.timeoutAt = 150; // Timeout cannot precede the send.
    EXPECT_FALSE(attemptMonotonic(a));
    a.timeoutAt = 250;
    EXPECT_TRUE(attemptMonotonic(a));
}

TEST(SpanTest, SpanCompleteRequiresExactlyOneWinner)
{
    HeldSpan s = singleAttemptSpan(classicAttempt());
    EXPECT_TRUE(spanComplete(logOf({s})[0]));

    s.attempts[0].won = false;
    EXPECT_FALSE(spanComplete(logOf({s})[0]));

    HeldSpan two = retrySpan();
    EXPECT_TRUE(spanComplete(logOf({two})[0]));
    two.attempts[0].won = true; // Second winner.
    EXPECT_FALSE(spanComplete(logOf({two})[0]));
}

TEST(SpanTest, SpanCompleteRequiresWinnerTimeline)
{
    HeldSpan s = singleAttemptSpan(classicAttempt());
    s.attempts[0].workerEnd = kNoTime;
    EXPECT_FALSE(spanComplete(logOf({s})[0]));
}

TEST(SpanTest, ClassicCriticalPathTilesExactly)
{
    const HeldSpan s = singleAttemptSpan(classicAttempt());
    const SpanLog log = logOf({s});
    CriticalPath path;
    ASSERT_TRUE(extractCriticalPath(log[0], path));
    ASSERT_EQ(path.count, 7u);
    EXPECT_EQ(path.segments[0].kind, SegmentKind::ClientQueue);
    EXPECT_EQ(path.segments[2].kind, SegmentKind::ServerQueue);
    EXPECT_EQ(path.segments[3].kind, SegmentKind::Service);
    EXPECT_EQ(path.segments[6].kind, SegmentKind::ClientDeliver);
    // Segments share endpoints and sum exactly to end-to-end.
    for (std::size_t i = 1; i < path.count; ++i)
        EXPECT_EQ(path.segments[i].begin, path.segments[i - 1].end);
    EXPECT_EQ(path.totalNs(), s.trace.clientReceive - s.trace.intendedSend);
}

TEST(SpanTest, ClusterCriticalPathSplitsTheRouterInterval)
{
    const HeldSpan s = singleAttemptSpan(clusterAttempt());
    const SpanLog log = logOf({s});
    CriticalPath path;
    ASSERT_TRUE(extractCriticalPath(log[0], path));
    ASSERT_EQ(path.count, 14u);
    EXPECT_EQ(path.segments[2].kind, SegmentKind::RouterQueue);
    EXPECT_EQ(path.segments[4].kind, SegmentKind::LbQueue);
    EXPECT_EQ(path.segments[6].kind, SegmentKind::BackendQueue);
    EXPECT_EQ(path.segments[7].kind, SegmentKind::BackendService);
    // Backend-owned hops carry the backend id; the rest do not.
    EXPECT_EQ(path.segments[6].backendId, 2);
    EXPECT_EQ(path.segments[0].backendId, -1);
    EXPECT_EQ(path.totalNs(), s.trace.clientReceive - s.trace.intendedSend);
}

TEST(SpanTest, RetryChainCoversTimeoutAndBackoff)
{
    const HeldSpan s = retrySpan();
    const SpanLog log = logOf({s});
    CriticalPath path;
    ASSERT_TRUE(extractCriticalPath(log[0], path));
    // Failed primary: queue + timeout wait + backoff, then the
    // winner's 7 classic hops.
    ASSERT_EQ(path.count, 10u);
    EXPECT_EQ(path.segments[0].kind, SegmentKind::ClientQueue);
    EXPECT_EQ(path.segments[1].kind, SegmentKind::TimeoutWait);
    EXPECT_EQ(path.segments[1].backendId, 3); // Waited on shard 3.
    EXPECT_EQ(path.segments[2].kind, SegmentKind::RetryBackoff);
    EXPECT_EQ(path.segments[3].kind, SegmentKind::ClientQueue);
    EXPECT_EQ(path.totalNs(), s.trace.clientReceive - s.trace.intendedSend);
}

TEST(SpanTest, FailoverDropReplacesTimeoutWait)
{
    HeldSpan s = retrySpan();
    s.attempts[0].lbDropped = true;
    const SpanLog log = logOf({s});
    CriticalPath path;
    ASSERT_TRUE(extractCriticalPath(log[0], path));
    EXPECT_EQ(path.segments[1].kind, SegmentKind::FailoverWait);
}

TEST(SpanTest, HedgeWinAttributesWaitToPrimaryBackend)
{
    const HeldSpan s = hedgeSpan();
    const SpanLog log = logOf({s});
    CriticalPath path;
    ASSERT_TRUE(extractCriticalPath(log[0], path));
    ASSERT_EQ(path.count, 9u);
    EXPECT_EQ(path.segments[0].kind, SegmentKind::ClientQueue);
    EXPECT_EQ(path.segments[1].kind, SegmentKind::HedgeWait);
    // The wait was on the unanswered primary's shard, not the
    // hedge's.
    EXPECT_EQ(path.segments[1].backendId, 2);
    EXPECT_EQ(path.totalNs(), s.trace.clientReceive - s.trace.intendedSend);
}

TEST(SpanTest, RetentionOverflowCollapsesToCatchAll)
{
    // Winner is a retry but the failed primary was evicted: the
    // pre-win gap must still tile, as one collapsed segment.
    HeldSpan s = retrySpan();
    s.attempts = {s.attempts[1]};
    s.trace.stored = 1;
    s.trace.winner = 0;
    const SpanLog log = logOf({s});
    CriticalPath path;
    ASSERT_TRUE(extractCriticalPath(log[0], path));
    EXPECT_EQ(path.segments[0].kind, SegmentKind::RetryBackoff);
    EXPECT_EQ(path.totalNs(), s.trace.clientReceive - s.trace.intendedSend);
}

TEST(SpanTest, DecompositionTelescopesToIntegerNanoseconds)
{
    const SpanLog log =
        logOf({singleAttemptSpan(classicAttempt()),
               singleAttemptSpan(clusterAttempt()), retrySpan(),
               hedgeSpan()});
    for (std::size_t i = 0; i < log.size(); ++i) {
        const SpanTrace &s = log[i].trace;
        const ClusterDecomposition d = ClusterDecomposition::of(log[i]);
        ASSERT_TRUE(d.valid);
        EXPECT_EQ(d.totalNs(), d.endToEndNs); // Exact, not approximate.
        EXPECT_EQ(d.endToEndNs, s.clientReceive - s.intendedSend);
    }
}

TEST(SpanTest, DecompositionFromAnExtractedPathMatches)
{
    const SpanLog log = logOf({retrySpan(), hedgeSpan()});
    for (std::size_t i = 0; i < log.size(); ++i) {
        CriticalPath path;
        ASSERT_TRUE(extractCriticalPath(log[i], path));
        const ClusterDecomposition a = ClusterDecomposition::of(log[i]);
        const ClusterDecomposition b =
            ClusterDecomposition::of(log[i], path);
        EXPECT_EQ(a.ns, b.ns);
        EXPECT_EQ(a.endToEndNs, b.endToEndNs);
        EXPECT_EQ(a.hedgeOverlapNs, b.hedgeOverlapNs);
        EXPECT_TRUE(b.valid);
    }
}

TEST(SpanTest, DecompositionRecordsHedgeOverlap)
{
    const HeldSpan s = hedgeSpan();
    const ClusterDecomposition d =
        ClusterDecomposition::of(logOf({s})[0]);
    ASSERT_TRUE(d.valid);
    // Overlap runs from the hedge's send to the first response.
    EXPECT_EQ(d.hedgeOverlapNs,
              s.trace.clientReceive - s.attempts[1].clientSend);
}

TEST(SpanTest, IncompleteSpanYieldsInvalidDecomposition)
{
    HeldSpan s = singleAttemptSpan(classicAttempt());
    s.attempts[0].won = false;
    const SpanLog log = logOf({s});
    const ClusterDecomposition d = ClusterDecomposition::of(log[0]);
    EXPECT_FALSE(d.valid);
    CriticalPath path;
    EXPECT_FALSE(extractCriticalPath(log[0], path));
    EXPECT_EQ(path.count, 0u);
}

TEST(SpanTest, SegmentNamesAlignWithKinds)
{
    const auto &names = segmentKindNames();
    ASSERT_EQ(names.size(), kSegmentKindCount);
    EXPECT_EQ(names.front(), "client queue");
    EXPECT_EQ(names[static_cast<std::size_t>(
                  SegmentKind::BackendQueue)],
              "backend queue");
    EXPECT_EQ(names.back(), "client deliver");
}

/** The eight rows of @p span's critical path. */
std::array<SimDuration, kPathRowCount>
rowsOf(const SpanView &span)
{
    CriticalPath path;
    EXPECT_TRUE(extractCriticalPath(span, path));
    return pathRowsNs(path, span.trace.winner);
}

TEST(PathRowsTest, ClassicRowsAreTheWinnerStampGaps)
{
    const SpanLog log = logOf({singleAttemptSpan(classicAttempt())});
    const std::array<SimDuration, kPathRowCount> want = {
        0, 500, 2'000, 700, 5'000, 300, 2'000, 250};
    const auto rows = rowsOf(log[0]);
    EXPECT_EQ(rows, want);
    SimDuration sum = 0;
    for (SimDuration ns : rows)
        sum += ns;
    EXPECT_EQ(sum, 10'750u); // Exact, not approximate.
}

TEST(PathRowsTest, ClusterHopsFoldIntoServerQueueAndService)
{
    // The router queue is the server queue; router service, balancer,
    // fabric and backend hops tile the worker interval, i.e. service.
    const SpanLog log = logOf({singleAttemptSpan(clusterAttempt())});
    const std::array<SimDuration, kPathRowCount> want = {
        0, 500, 2'000, 700, 5'000, 300, 2'000, 250};
    EXPECT_EQ(rowsOf(log[0]), want);
}

TEST(PathRowsTest, LosingAttemptsArePreWinWait)
{
    // Retry: primary queue + timeout wait + backoff up to the retry's
    // trigger at 5'600. Hedge: primary queue + hedge wait up to 4'000.
    // Evicted primary: one catch-all segment over the same gap.
    HeldSpan evicted = retrySpan();
    evicted.attempts = {evicted.attempts[1]};
    evicted.trace.stored = 1;
    evicted.trace.winner = 0;
    const SpanLog log = logOf({retrySpan(), hedgeSpan(), evicted});
    EXPECT_EQ(rowsOf(log[0])[0], 4'600u);
    EXPECT_EQ(rowsOf(log[1])[0], 3'000u);
    EXPECT_EQ(rowsOf(log[2])[0], 4'600u);
    for (std::size_t i = 0; i < log.size(); ++i) {
        const auto rows = rowsOf(log[i]);
        EXPECT_EQ(rows[1], 500u) << "winner's own client queue";
        EXPECT_EQ(rows[7], 250u);
    }
}

TEST(PathRowsTest, RowNamesAlign)
{
    const auto &names = pathRowNames();
    ASSERT_EQ(names.size(), kPathRowCount);
    EXPECT_EQ(names.front(), "pre-win wait");
    EXPECT_EQ(names[1], "client queue");
    EXPECT_EQ(names[4], "service");
    EXPECT_EQ(names.back(), "client deliver");
}

TEST(SpanTest, DecompositionCsvShape)
{
    HeldSpan incomplete = singleAttemptSpan(classicAttempt());
    incomplete.attempts[0].workerEnd = kNoTime;
    const std::string csv = decompositionCsv(logOf(
        {singleAttemptSpan(classicAttempt()), incomplete, retrySpan()}));
    // Header + one row per span with a critical path.
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, 3u);
    EXPECT_EQ(csv.rfind("seq_id,client,op,hit,pre_win_us,", 0), 0u);
    EXPECT_NE(csv.find("component_sum_us,end_to_end_us"),
              std::string::npos);
    EXPECT_NE(csv.find("\n7,0,get,0,0.000,0.500,2.000,0.700,5.000,"
                       "0.300,2.000,0.250,10.750,10.750\n"),
              std::string::npos);
    // The retry's row carries the winning attempt's seq and its
    // pre-win wait.
    EXPECT_NE(csv.find("\n11,0,get,0,4.600,0.500,"), std::string::npos);
    EXPECT_NE(csv.find(",15.350,15.350\n"), std::string::npos);
}

TEST(SpanTest, RecorderSamplesByCompletionOrder)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.sampleEvery = 3;
    SpanRecorder recorder(cfg);
    const SpanLog one = logOf({singleAttemptSpan(classicAttempt())});
    std::size_t kept = 0;
    for (int i = 0; i < 10; ++i)
        kept += recorder.record(one[0]) ? 1 : 0;
    EXPECT_EQ(recorder.seen(), 10u);
    EXPECT_EQ(kept, 4u); // Offers 0, 3, 6, 9.
    EXPECT_EQ(recorder.spans().size(), 4u);

    const auto taken = recorder.takeSpans();
    EXPECT_EQ(taken.size(), 4u);
    EXPECT_TRUE(recorder.spans().empty());
    EXPECT_EQ(recorder.seen(), 10u); // Counting survives the take.
}

TEST(SpanTest, RecorderDisabledRetainsNothing)
{
    SpanRecorder recorder;
    const SpanLog one = logOf({singleAttemptSpan(classicAttempt())});
    EXPECT_FALSE(recorder.record(one[0]));
    EXPECT_EQ(recorder.seen(), 0u);
}

TEST(SpanLayoutTest, AttemptsReadBackInSendOrder)
{
    // 1, 2, 8 and 12 attempts sent (12 overflows retention to 8), the
    // winner first, in the middle, and last.
    const std::vector<HeldSpan> spans = {
        chainSpan(1, 0), chainSpan(2, 0), chainSpan(2, 1),
        chainSpan(8, 0), chainSpan(8, 3), chainSpan(8, 7),
        chainSpan(12, 7)};
    const SpanLog log = logOf(spans);
    ASSERT_EQ(log.size(), spans.size());
    for (std::size_t k = 0; k < spans.size(); ++k) {
        const HeldSpan &want = spans[k];
        const SpanView got = log[k];
        EXPECT_EQ(got.trace.attemptCount, want.trace.attemptCount);
        EXPECT_EQ(got.trace.stored, want.trace.stored);
        EXPECT_EQ(got.trace.winner, want.trace.winner);
        for (std::uint32_t i = 0; i < want.trace.stored; ++i) {
            EXPECT_EQ(got.attempt(i).seqId, want.attempts[i].seqId);
            EXPECT_EQ(got.attempt(i).won, want.attempts[i].won);
        }
        EXPECT_TRUE(spanComplete(got)) << "span " << k;
    }
}

TEST(SpanLayoutTest, ExportsKeepSendOrderAndMatchTheRecorder)
{
    const std::vector<HeldSpan> spans = {
        chainSpan(1, 0), chainSpan(2, 1), chainSpan(8, 3),
        chainSpan(12, 7)};
    const SpanLog direct = logOf(spans);
    TraceConfig cfg;
    cfg.enabled = true;
    SpanRecorder recorder(cfg);
    for (std::size_t k = 0; k < direct.size(); ++k)
        ASSERT_TRUE(recorder.record(direct[k]));
    EXPECT_EQ(spanJson(recorder.spans()), spanJson(direct));
    EXPECT_EQ(chromeSpanJson(recorder.spans()), chromeSpanJson(direct));

    const json::Value doc = json::parse(spanJson(direct));
    const json::Array &rows = doc.at("spans").asArray();
    ASSERT_EQ(rows.size(), spans.size());
    for (std::size_t k = 0; k < spans.size(); ++k) {
        const json::Value &row = rows[k];
        EXPECT_EQ(row.at("attempt_count").asInt(),
                  static_cast<std::int64_t>(spans[k].trace.attemptCount));
        EXPECT_EQ(row.at("winner").asInt(),
                  static_cast<std::int64_t>(spans[k].trace.winner));
        const json::Array &attempts = row.at("attempts").asArray();
        ASSERT_EQ(attempts.size(), spans[k].trace.stored);
        for (std::size_t i = 0; i < attempts.size(); ++i)
            EXPECT_EQ(attempts[i].at("seq").asInt(),
                      static_cast<std::int64_t>(
                          spans[k].attempts[i].seqId));
    }
}

TEST(SpanLayoutTest, SingleAttemptSpansAddNoLosers)
{
    TraceConfig cfg;
    cfg.enabled = true;
    SpanRecorder recorder(cfg);
    const SpanLog one = logOf({singleAttemptSpan(clusterAttempt())});
    for (int i = 0; i < 5; ++i)
        recorder.record(one[0]);
    EXPECT_EQ(recorder.spans().size(), 5u);
    EXPECT_EQ(recorder.spans().loserCount(), 0u);

    const SpanLog two = logOf({chainSpan(3, 2)});
    recorder.record(two[0]);
    EXPECT_EQ(recorder.spans().loserCount(), 2u);
}

TEST(SpanLayoutTest, DroppedSpansTakeTheirLosersWithThem)
{
    const SpanLog three = logOf({chainSpan(3, 2)});

    TraceConfig sampled;
    sampled.enabled = true;
    sampled.sampleEvery = 2;
    SpanRecorder every2(sampled);
    for (int i = 0; i < 5; ++i)
        every2.record(three[0]); // Offers 0, 2, 4 kept.
    EXPECT_EQ(every2.spans().size(), 3u);
    EXPECT_EQ(every2.spans().loserCount(), 3u * 2u);

    TraceConfig capped;
    capped.enabled = true;
    capped.maxTraces = 2;
    SpanRecorder cap2(capped);
    for (int i = 0; i < 5; ++i)
        cap2.record(three[0]);
    EXPECT_EQ(cap2.spans().size(), 2u);
    EXPECT_EQ(cap2.spans().loserCount(), 2u * 2u);
    for (std::size_t k = 0; k < cap2.spans().size(); ++k)
        EXPECT_EQ(cap2.spans()[k].attempt(1).seqId, 101u);
}

TEST(SpanTest, SpanJsonCarriesSchemaAndOneWinner)
{
    const std::string text = spanJson(logOf({retrySpan(), hedgeSpan()}));
    const json::Value doc = json::parse(text);
    EXPECT_EQ(doc.at("otherData").at("schema").asString(), "span/1");
    const json::Array &spans = doc.at("spans").asArray();
    ASSERT_EQ(spans.size(), 2u);
    for (const json::Value &span : spans) {
        const json::Array &attempts = span.at("attempts").asArray();
        std::size_t winners = 0;
        for (const json::Value &a : attempts)
            winners += a.at("won").asBool() ? 1 : 0;
        EXPECT_EQ(winners, 1u);
        const auto winner = span.at("winner").asInt();
        ASSERT_GE(winner, 0);
        ASSERT_LT(static_cast<std::size_t>(winner), attempts.size());
        EXPECT_TRUE(attempts[static_cast<std::size_t>(winner)]
                        .at("won")
                        .asBool());
    }
}

TEST(SpanTest, ChromeSpanJsonLanesPerAttempt)
{
    const std::string text = chromeSpanJson(logOf({hedgeSpan()}));
    const json::Value doc = json::parse(text);
    EXPECT_EQ(doc.at("otherData").at("schema").asString(),
              "span-lanes/1");
    std::size_t lanes = 0;
    std::size_t hops = 0;
    for (const json::Value &ev :
         doc.at("traceEvents").asArray()) {
        const std::string ph = ev.at("ph").asString();
        if (ph == "M" &&
            ev.at("name").asString() == "thread_name")
            ++lanes;
        else if (ph == "X") {
            ++hops;
            EXPECT_GE(ev.at("dur").asNumber(), 0.0);
            EXPECT_EQ(ev.at("cat").asString(), "attempt");
        }
    }
    EXPECT_EQ(lanes, 2u); // One lane per stored attempt.
    EXPECT_GT(hops, 0u);
}

} // namespace
} // namespace obs
} // namespace treadmill
