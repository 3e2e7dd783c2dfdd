/**
 * @file
 * Attempt-span tracing: the one trace model of a request's life,
 * exported as span JSON, Chrome trace-event JSON (loadable in
 * Perfetto / chrome://tracing) and a per-request decomposition CSV.
 *
 * A span covers the whole life of one *logical* request: one
 * AttemptSpan per wire attempt (original / retry-k / hedge), each
 * carrying the full hop timeline including the cluster-tier stamps
 * (balancer arrival/dispatch, fabric transit, backend residence) and
 * the resilience stamps (trigger instant, timeout instant). Exactly
 * one attempt is marked as the winner -- the one whose response the
 * client consumed.
 *
 * Storage is lean because most requests make one attempt: a SpanTrace
 * record carries the winning attempt inline, and the losing attempts
 * of retries and hedges sit in one side buffer per SpanLog. A SpanView
 * joins the two and reads attempts in their original order.
 *
 * On top of the raw spans, extractCriticalPath() computes the exact
 * segment chain that determined clientReceive: timeout waits, retry
 * backoffs, and hedge waits on the losing side, then the winning
 * attempt's wire path hop by hop. Segments share endpoints, so the
 * integer-nanosecond sum telescopes *exactly* to end-to-end latency;
 * ClusterDecomposition aggregates the chain per segment kind, and
 * pathRowsNs() groups it into the eight rows of the paper-level
 * decomposition (pre-win wait ... client deliver).
 *
 * Everything here is plain data over util only (obs sits at the bottom
 * of the layering DAG); producers in core copy Request stamps in.
 */

#ifndef TREADMILL_OBS_SPAN_H_
#define TREADMILL_OBS_SPAN_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "util/types.h"

namespace treadmill {
namespace obs {

/** Tracing knobs; disabled recording costs one branch per request. */
struct TraceConfig {
    bool enabled = false;
    /** Record every Nth completed request (1 = all). */
    std::uint64_t sampleEvery = 1;
    /** Hard cap on retained spans (newest dropped once full). */
    std::size_t maxTraces = 1u << 20;
};

/**
 * A named wall-of-time annotation overlaid on the trace, e.g. an
 * injected fault window. Kept as a plain struct so producers (the
 * fault injector) need no dependency on obs beyond this header.
 */
struct TraceAnnotation {
    std::string name;     ///< Display label ("server_stall").
    SimTime start = 0;    ///< Window start (simulated ns).
    SimTime end = 0;      ///< Window end (simulated ns).
};

/** Why an attempt was sent. */
enum class AttemptCause : std::uint8_t {
    Scheduled = 0, ///< The open-loop schedule's first send.
    Retry = 1,     ///< A timeout elapsed and the retry budget allowed.
    Hedge = 2,     ///< The hedge timer fired unanswered.
};

/** Display name of @p cause ("scheduled", "retry", "hedge"). */
const char *attemptCauseName(AttemptCause cause);

/** Attempts retained per span; extras beyond this are counted in
 *  SpanTrace::attemptCount but their stamps are dropped (the winner is
 *  always retained). */
constexpr std::uint32_t kMaxSpanAttempts = 8;

/**
 * The hop timeline of one wire attempt. Stamps are kNoTime until the
 * attempt reached that hop; losing attempts legitimately stop partway
 * (e.g. a hedge still in flight when the primary answered).
 */
struct AttemptSpan {
    std::uint64_t seqId = 0;
    std::uint32_t attempt = 0; ///< 0 = first send, 1+ = clones.
    AttemptCause cause = AttemptCause::Scheduled;
    bool hedged = false;
    bool won = false;       ///< This attempt's response was consumed.
    bool lbDropped = false; ///< Balancer dropped it (replicas down).
    std::int32_t backendId = -1; ///< Shard dispatched to; -1 = none.
    std::uint32_t lbFailovers = 0; ///< Down replicas skipped at dispatch.

    /** @name Client-side stamps
     * @{ */
    SimTime triggerAt = kNoTime;  ///< Client decided to send it.
    SimTime clientSend = kNoTime; ///< Left the client CPU.
    SimTime timeoutAt = kNoTime;  ///< Its timeout fired (if ever).
    /** @} */

    /** @name Router / classic-server stamps
     * @{ */
    SimTime nicArrival = kNoTime;
    SimTime workerStart = kNoTime;
    SimTime workerEnd = kNoTime;
    SimTime nicDeparture = kNoTime;
    /** @} */

    /** @name Cluster-tier stamps (kNoTime on the classic path)
     * @{ */
    SimTime lbArrival = kNoTime;
    SimTime lbDispatch = kNoTime;
    SimTime backendNicArrival = kNoTime;
    SimTime backendWorkerStart = kNoTime;
    SimTime backendWorkerEnd = kNoTime;
    SimTime backendNicDeparture = kNoTime;
    SimTime routerReturn = kNoTime;
    /** @} */

    /** @name Client-side completion stamps
     * @{ */
    SimTime clientNicArrival = kNoTime;
    SimTime clientReceive = kNoTime;
    /** @} */
};

/**
 * The record of one completed logical request: its identity, its
 * end-to-end stamps, and the winning attempt inline. Its other
 * `stored - 1` attempts (the losers) live in the owning SpanLog; read
 * attempts through a SpanView.
 */
struct SpanTrace {
    std::uint64_t logicalSeqId = 0;
    std::uint64_t connectionId = 0; ///< First attempt's connection.
    std::uint64_t clientIndex = 0;
    bool isGet = true;
    bool hit = false;

    SimTime intendedSend = kNoTime;  ///< Open-loop schedule instant.
    SimTime clientReceive = kNoTime; ///< Winning response consumed.

    std::uint32_t attemptCount = 0; ///< Wire attempts actually sent.
    std::uint32_t stored = 0;       ///< Attempts retained.
    std::int32_t winner = -1;       ///< Index of the winning attempt.
    /** Position of this span's first loser in its log's side buffer. */
    std::uint64_t firstLoser = 0;
    /** Attempt inlineIndex(): the winner, or attempt 0 when winner is
     *  not a valid index. */
    AttemptSpan winning;

    /** The attempt index held inline (the others are losers). */
    std::uint32_t
    inlineIndex() const
    {
        return winner >= 0 && static_cast<std::uint32_t>(winner) < stored
                   ? static_cast<std::uint32_t>(winner)
                   : 0;
    }

    double
    endToEndUs() const
    {
        return toMicros(clientReceive - intendedSend);
    }
};

static_assert(sizeof(SpanTrace) <= 256,
              "a span record carries one attempt inline, not eight");

/** One span's record and its losing attempts, read in attempt order. */
struct SpanView {
    const SpanTrace &trace;
    /** The trace.stored - 1 losing attempts, in attempt order. */
    const AttemptSpan *losers = nullptr;

    /** Attempt @p i in send order, 0 <= i < trace.stored. */
    const AttemptSpan &
    attempt(std::uint32_t i) const
    {
        const std::uint32_t w = trace.inlineIndex();
        return i == w ? trace.winning : losers[i < w ? i : i - 1];
    }
};

/**
 * The spans of one run: compact records plus one side buffer holding
 * every span's losing attempts, contiguous per span.
 */
class SpanLog
{
  public:
    std::size_t size() const { return records.size(); }
    bool empty() const { return records.empty(); }

    SpanView
    operator[](std::size_t i) const
    {
        const SpanTrace &s = records[i];
        return {s, losers.data() + s.firstLoser};
    }

    /** Losing attempts held across all spans. */
    std::size_t loserCount() const { return losers.size(); }

    void reserve(std::size_t spans) { records.reserve(spans); }

    // tmlint:hot-path-begin -- once per retained span; amortized
    // vector growth only, no allocation per span.
    /** Append a copy of @p span and its losing attempts. */
    void
    push(const SpanView &span)
    {
        records.push_back(span.trace);
        records.back().firstLoser = losers.size();
        if (span.trace.stored > 1)
            losers.insert(losers.end(), span.losers,
                          span.losers + (span.trace.stored - 1));
    }
    // tmlint:hot-path-end

  private:
    std::vector<SpanTrace> records;
    std::vector<AttemptSpan> losers;
};

/**
 * True when every *stamped* hop of @p a is monotone in lifecycle
 * order (unset stamps are skipped; a partial timeline can still be
 * monotone).
 */
bool attemptMonotonic(const AttemptSpan &a);

/**
 * True when the span is structurally sound: a valid winner index,
 * exactly one attempt marked won, every retained attempt monotone,
 * and the winning attempt's end-to-end timeline complete
 * (triggerAt through clientReceive all stamped).
 */
bool spanComplete(const SpanView &span);

/**
 * One segment kind of the critical path. The first block are
 * *pre-win* waits (the losing side of retries and hedges); the rest
 * are hops of the winning attempt's wire path. Classic
 * (non-cluster) runs use ServerQueue/Service/ServerNic; cluster runs
 * split the same interval into router, balancer, fabric, and backend
 * segments.
 */
enum class SegmentKind : std::uint8_t {
    ClientQueue = 0, ///< Trigger to actual send (client CPU queue).
    TimeoutWait,     ///< Send to timeout of a failed attempt.
    FailoverWait,    ///< Timeout window of a balancer-dropped attempt.
    RetryBackoff,    ///< Timeout to the next attempt's trigger.
    HedgeWait,       ///< Primary send to the winning hedge's trigger.
    NetRequest,      ///< Client NIC to server NIC.
    RouterQueue,     ///< Router NIC to router worker (cluster).
    RouterService,   ///< Router deserialize up to the balancer.
    LbQueue,         ///< Balancer arrival to dispatch.
    FabricRequest,   ///< Dispatch to backend NIC.
    BackendQueue,    ///< Backend NIC to backend worker.
    BackendService,  ///< Backend worker execution.
    BackendNic,      ///< Backend worker end to backend NIC out.
    FabricResponse,  ///< Backend NIC out to router return.
    RouterEgress,    ///< Router return to router serialize end.
    ServerQueue,     ///< Server NIC to worker (classic path).
    Service,         ///< Worker execution (classic path).
    ServerNic,       ///< Worker end to server NIC out.
    NetResponse,     ///< Server NIC out to client NIC.
    ClientDeliver,   ///< Client NIC to response callback.
};

/** Number of SegmentKind values. */
constexpr std::size_t kSegmentKindCount =
    static_cast<std::size_t>(SegmentKind::ClientDeliver) + 1;

/** Display names indexed by SegmentKind, in declaration order. */
const std::vector<std::string> &segmentKindNames();

/** One hop (or wait) of a critical path. */
struct PathSegment {
    SegmentKind kind = SegmentKind::ClientQueue;
    SimTime begin = 0;
    SimTime end = 0;
    /** Attempt the segment belongs to (index into SpanTrace). */
    std::int32_t attempt = -1;
    /** Backend the time is attributable to; -1 = client/net/router. */
    std::int32_t backendId = -1;

    SimDuration
    ns() const
    {
        return end - begin;
    }
};

/** Upper bound on segments per path: ~12 wire hops for the winner
 *  plus three waits per losing attempt. */
constexpr std::size_t kMaxPathSegments = 12 + 3 * kMaxSpanAttempts;

/** The exact segment chain that determined one span's completion. */
struct CriticalPath {
    std::array<PathSegment, kMaxPathSegments> segments{};
    std::size_t count = 0;
    SimTime startAt = 0; ///< == span.intendedSend.
    SimTime endAt = 0;   ///< == span.clientReceive.

    /** Exact integer sum of the segment durations. */
    SimDuration totalNs() const;
};

/**
 * Extract the critical path of @p span into @p out. Returns false
 * (leaving @p out empty) when the span is incomplete. On success the
 * segments tile [intendedSend, clientReceive] with shared endpoints:
 * totalNs() == clientReceive - intendedSend holds exactly.
 */
bool extractCriticalPath(const SpanView &span, CriticalPath &out);

/**
 * Per-kind aggregation of one span's critical path: the cluster-aware
 * decomposition. Integer-nanosecond sums per SegmentKind, telescoping
 * exactly to end-to-end; plus the hedge-overlap diagnostic (time the
 * primary and its hedge were in flight simultaneously -- *not* a
 * critical-path segment, the overlap is the point of hedging).
 */
struct ClusterDecomposition {
    std::array<SimDuration, kSegmentKindCount> ns{};
    SimDuration endToEndNs = 0;
    SimDuration hedgeOverlapNs = 0;
    bool valid = false; ///< False when the span was incomplete.

    SimDuration totalNs() const;

    double
    us(SegmentKind kind) const
    {
        return toMicros(ns[static_cast<std::size_t>(kind)]);
    }

    double
    endToEndUs() const
    {
        return toMicros(endToEndNs);
    }

    static ClusterDecomposition of(const SpanView &span);

    /** The decomposition of @p span from its already extracted
     *  critical @p path (valid == false when the path is empty). */
    static ClusterDecomposition of(const SpanView &span,
                                   const CriticalPath &path);
};

/** Rows of the eight-row path decomposition. */
constexpr std::size_t kPathRowCount = 8;

/** Row display names in path order: "pre-win wait", "client queue",
 *  "net request", "server queue", "service", "server nic",
 *  "net response", "client deliver". */
const std::vector<std::string> &pathRowNames();

/**
 * The eight-row decomposition of a critical path: a fixed grouping of
 * its segments, integer nanoseconds per row. A segment of any attempt
 * but @p winner is pre-win wait (retry/hedge policy delay, not client
 * queueing); the winner's segments map by kind, the router queue into
 * server queue and the router service, balancer, fabric and backend
 * hops -- the cluster split of the worker interval -- into service.
 * The rows sum to path.totalNs() exactly, and each equals the winning
 * attempt's stamp difference (pre-win = triggerAt - intendedSend, ...,
 * client deliver = clientReceive - clientNicArrival).
 */
std::array<SimDuration, kPathRowCount>
pathRowsNs(const CriticalPath &path, std::int32_t winner);

/**
 * Collects sampled spans during a run. Sampling is by completion
 * order modulo TraceConfig::sampleEvery -- deterministic given the
 * simulation's event order, and independent of any Rng stream, so
 * enabling tracing cannot perturb a run. A span the sampler or the
 * maxTraces cap drops leaves no losers behind either.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(const TraceConfig &config = {});

    /** Pre-size retention so steady-state recording never grows the
     *  record vector (@p expected completions, before sampling). */
    void reserveFor(std::size_t expected);

    // tmlint:hot-path-begin -- called once per completed logical
    // request when tracing is on; must stay alloc- and string-free.
    /** Offer one completed span; returns true if it was retained. */
    bool
    record(const SpanView &span)
    {
        if (!cfg.enabled)
            return false;
        const bool sampled = offered % cfg.sampleEvery == 0;
        ++offered;
        if (!sampled || retained.size() >= cfg.maxTraces)
            return false;
        retained.push(span);
        return true;
    }
    // tmlint:hot-path-end

    /** Spans offered so far (sampled or not). */
    std::uint64_t seen() const { return offered; }

    const SpanLog &spans() const { return retained; }

    /** Move the retained spans out (recorder keeps counting). */
    SpanLog takeSpans();

  private:
    TraceConfig cfg;
    SpanLog retained;
    std::uint64_t offered = 0;
};

/**
 * Render spans as a standalone JSON document for external tooling and
 * CI validation: {"spans": [{logical, client, winner, attempts:
 * [{seq, attempt, cause, won, backend, stamps...}]}]}. Deterministic
 * ordering, integer microsecond-scaled stamps with 3 decimals.
 */
std::string spanJson(const SpanLog &spans);

/**
 * Render spans into Chrome trace-event JSON: one "process" per
 * client, one lane per wire attempt (labelled original/retry-k/
 * hedge), each lane tiled with its hop segments. Optional
 * @p annotations (fault windows) render as spans on a dedicated
 * "faults" process so they line up against the attempt lanes, and an
 * optional @p telemetry series renders as "ph":"C" counter tracks on
 * a dedicated "telemetry" process.
 */
std::string chromeSpanJson(
    const SpanLog &spans,
    const std::vector<TraceAnnotation> &annotations = {},
    const TelemetrySeries *telemetry = nullptr);

/**
 * Render spans as a per-request decomposition CSV: one row per span
 * with a critical path, in log (completion) order, carrying the
 * winning attempt's seq id, the eight pathRowsNs() rows, their sum,
 * and the end-to-end latency (all microseconds).
 */
std::string decompositionCsv(const SpanLog &spans);

} // namespace obs
} // namespace treadmill

#endif // TREADMILL_OBS_SPAN_H_
