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
 * integer-nanosecond sum telescopes *exactly* to end-to-end latency.
 * Every latency breakdown is one grouping of that chain (columnsNs()):
 * per segment kind, the eight rows of the paper-level decomposition
 * (pre-win wait ... client deliver), or Fig 3's server / network /
 * client split.
 *
 * Everything here is plain data over util only (obs sits at the bottom
 * of the layering DAG). The stamps and the per-tier hop chain are each
 * listed once, as tables in span.cc that the critical path, the
 * completeness checks, the Chrome lanes and the span JSON all walk.
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
 * The identity and hop timeline of one wire attempt, declared once:
 * server::Request derives from it, so every component that touches a
 * request stamps its span attempt in place, and recording a span copies
 * the attempt in one assignment. Stamps are kNoTime until the attempt
 * reached that hop; losing attempts legitimately stop partway (e.g. a
 * hedge still in flight when the primary answered).
 */
struct AttemptSpan {
    std::uint64_t seqId = 0;
    std::uint32_t attempt = 0; ///< 0 = first send, 1+ = clones.
    AttemptCause cause = AttemptCause::Scheduled;
    bool hedged = false;    ///< A hedge (backup) send.
    bool won = false;       ///< This attempt's response was consumed.
    /** The balancer dropped this attempt (every replica down). */
    bool lbDropped = false;
    /** Backend shard the balancer dispatched it to (-1 = direct path,
     *  no balancer tier), so attribution can split "backend N got slow"
     *  from "the balancer queued". */
    std::int32_t backendId = -1;
    /** Down replicas skipped ahead of the one that got this attempt. */
    std::uint32_t lbFailovers = 0;

    /** @name Client-side stamps
     * triggerAt is the instant the client decided to send *this*
     * attempt: the open-loop schedule instant for the first attempt,
     * the backoff/hedge timer firing for clones. timeoutAt records when
     * this attempt's timeout fired, kNoTime if it never did.
     * @{ */
    SimTime triggerAt = kNoTime;
    SimTime clientSend = kNoTime; ///< Left the client CPU.
    SimTime timeoutAt = kNoTime;
    /** @} */

    /** @name Router / classic-server stamps
     * @{ */
    SimTime nicArrival = kNoTime;   ///< Reached the server NIC.
    SimTime workerStart = kNoTime;  ///< Began worker processing.
    SimTime workerEnd = kNoTime;    ///< Finished worker processing.
    SimTime nicDeparture = kNoTime; ///< Response left the server NIC.
    /** @} */

    /** @name Cluster-tier stamps (kNoTime on the classic path)
     * Stamped along the router -> balancer -> fabric -> backend chain,
     * splitting what would otherwise be one opaque worker interval.
     * @{ */
    SimTime lbArrival = kNoTime;  ///< Entered the balancer.
    SimTime lbDispatch = kNoTime; ///< Left the balancer queue.
    SimTime backendNicArrival = kNoTime;  ///< Reached the shard NIC.
    SimTime backendWorkerStart = kNoTime; ///< Shard worker began.
    SimTime backendWorkerEnd = kNoTime;   ///< Shard worker finished.
    SimTime backendNicDeparture = kNoTime; ///< Left the shard NIC.
    SimTime routerReturn = kNoTime; ///< Response back at the router.
    /** @} */

    /** @name Client-side completion stamps
     * @{ */
    SimTime clientNicArrival = kNoTime; ///< Response hit the client NIC.
    SimTime clientReceive = kNoTime;    ///< Response callback ran.
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
 * The latency breakdowns, each a fixed grouping of critical-path
 * segments into columns. Row and Fig3 nest: every Fig 3 column is a
 * sum of rows.
 */
enum class Grouping : std::uint8_t {
    /** One column per SegmentKind, in declaration order. */
    Segment,
    /** The eight rows: "pre-win wait", "client queue", "net request",
     *  "server queue", "service", "server nic", "net response",
     *  "client deliver". */
    Row,
    /** Fig 3's split: "server" (server queue + service + server nic),
     *  "network" (net request + net response) and "client" (pre-win
     *  wait + client queue + client deliver). */
    Fig3,
};

/** Display names of @p grouping's columns, in column order. */
const std::vector<std::string> &columnNames(Grouping grouping);

/** Integer nanoseconds per column of one grouping; the first `count`
 *  entries are the columns. */
struct Columns {
    std::array<SimDuration, kSegmentKindCount> ns{};
    std::size_t count = 0;

    const SimDuration *begin() const { return ns.data(); }
    const SimDuration *end() const { return ns.data() + count; }
};

/**
 * The columns of @p path under @p grouping. A segment of any attempt
 * but @p winner is pre-win wait (retry/hedge policy delay, not client
 * queueing) in the rows, though the Segment grouping keeps its kind;
 * the winner's segments map by kind, the router queue into server
 * queue and the router service, balancer, fabric and backend hops --
 * the cluster split of the worker interval -- into service. Every
 * grouping's columns sum to path.totalNs() exactly, and each row
 * equals the winning attempt's stamp difference (pre-win = triggerAt
 * - intendedSend, ..., client deliver = clientReceive -
 * clientNicArrival).
 */
Columns columnsNs(const CriticalPath &path, std::int32_t winner,
                  Grouping grouping);

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
 * winning attempt's seq id, its eight Grouping::Row columns, their
 * sum, and the end-to-end latency (all microseconds).
 */
std::string decompositionCsv(const SpanLog &spans);

} // namespace obs
} // namespace treadmill

#endif // TREADMILL_OBS_SPAN_H_
