#include "obs/span.h"

#include <algorithm>
#include <set>

#include "util/json.h"
#include "util/strings.h"

namespace treadmill {
namespace obs {

const char *
attemptCauseName(AttemptCause cause)
{
    switch (cause) {
      case AttemptCause::Scheduled:
        return "scheduled";
      case AttemptCause::Retry:
        return "retry";
      case AttemptCause::Hedge:
        return "hedge";
    }
    return "unknown";
}

namespace {

/** The lifecycle order of every AttemptSpan stamp. */
constexpr std::size_t kAttemptStampCount = 15;

void
attemptStamps(const AttemptSpan &a,
              SimTime (&out)[kAttemptStampCount])
{
    out[0] = a.triggerAt;
    out[1] = a.clientSend;
    out[2] = a.nicArrival;
    out[3] = a.workerStart;
    out[4] = a.lbArrival;
    out[5] = a.lbDispatch;
    out[6] = a.backendNicArrival;
    out[7] = a.backendWorkerStart;
    out[8] = a.backendWorkerEnd;
    out[9] = a.backendNicDeparture;
    out[10] = a.routerReturn;
    out[11] = a.workerEnd;
    out[12] = a.nicDeparture;
    out[13] = a.clientNicArrival;
    out[14] = a.clientReceive;
}

} // namespace

bool
attemptMonotonic(const AttemptSpan &a)
{
    SimTime stamps[kAttemptStampCount];
    attemptStamps(a, stamps);
    SimTime last = 0;
    for (SimTime stamp : stamps) {
        if (stamp == kNoTime)
            continue;
        if (stamp < last)
            return false;
        last = stamp;
    }
    // The timeout, when it fired, fired after the attempt was sent.
    if (a.timeoutAt != kNoTime &&
        (a.clientSend == kNoTime || a.timeoutAt < a.clientSend))
        return false;
    return true;
}

bool
spanComplete(const SpanView &view)
{
    const SpanTrace &span = view.trace;
    if (span.intendedSend == kNoTime || span.clientReceive == kNoTime)
        return false;
    if (span.stored == 0 || span.stored > kMaxSpanAttempts)
        return false;
    if (span.winner < 0 ||
        static_cast<std::uint32_t>(span.winner) >= span.stored)
        return false;
    std::uint32_t winners = 0;
    for (std::uint32_t i = 0; i < span.stored; ++i) {
        const AttemptSpan &a = view.attempt(i);
        if (a.won)
            ++winners;
        if (!attemptMonotonic(a))
            return false;
    }
    const AttemptSpan &w = span.winning;
    if (winners != 1 || !w.won)
        return false;

    const SimTime required[] = {w.triggerAt,    w.clientSend,
                                w.nicArrival,   w.workerStart,
                                w.workerEnd,    w.nicDeparture,
                                w.clientNicArrival, w.clientReceive};
    for (SimTime stamp : required)
        if (stamp == kNoTime)
            return false;
    return w.triggerAt >= span.intendedSend &&
           w.clientReceive == span.clientReceive;
}

const std::vector<std::string> &
segmentKindNames()
{
    static const std::vector<std::string> names = {
        "client queue",   "timeout wait", "failover wait",
        "retry backoff",  "hedge wait",   "net request",
        "router queue",   "router service", "lb queue",
        "fabric request", "backend queue", "backend service",
        "backend nic",    "fabric response", "router egress",
        "server queue",   "service",      "server nic",
        "net response",   "client deliver"};
    return names;
}

SimDuration
CriticalPath::totalNs() const
{
    SimDuration sum = 0;
    for (std::size_t i = 0; i < count; ++i)
        sum += segments[i].ns();
    return sum;
}

namespace {

/** Append-with-invariants helper for extractCriticalPath: every
 *  segment must start where the previous one ended and must not run
 *  backwards. */
class PathBuilder
{
  public:
    PathBuilder(CriticalPath &path, SimTime start)
        : out(path), cursor(start)
    {
        out.count = 0;
    }

    bool
    push(SegmentKind kind, SimTime begin, SimTime end,
         std::int32_t attempt, std::int32_t backendId)
    {
        if (begin != cursor || end < begin || end == kNoTime ||
            out.count >= kMaxPathSegments)
            return false;
        PathSegment &seg = out.segments[out.count++];
        seg.kind = kind;
        seg.begin = begin;
        seg.end = end;
        seg.attempt = attempt;
        seg.backendId = backendId;
        cursor = end;
        return true;
    }

    SimTime at() const { return cursor; }

    void
    restart(SimTime start)
    {
        out.count = 0;
        cursor = start;
    }

  private:
    CriticalPath &out;
    SimTime cursor;
};

/** True when the winning attempt carries the full cluster-hop
 *  timeline (it crossed a balancer tier). */
bool
hasClusterStamps(const AttemptSpan &w)
{
    return w.lbArrival != kNoTime && w.lbDispatch != kNoTime &&
           w.backendNicArrival != kNoTime &&
           w.backendWorkerStart != kNoTime &&
           w.backendWorkerEnd != kNoTime &&
           w.backendNicDeparture != kNoTime &&
           w.routerReturn != kNoTime;
}

/**
 * The pre-win chain for a retry winner: every earlier primary
 * (non-hedged) attempt contributed [trigger -> send] client queueing,
 * [send -> timeout] waiting on an unanswered attempt, and
 * [timeout -> next trigger] backoff. Returns false when a stamp is
 * missing (e.g. intermediate attempts dropped past the retention
 * cap); the caller then collapses the whole pre-win gap into one
 * catch-all backoff segment to keep the telescoping exact.
 */
bool
pushRetryChain(PathBuilder &b, const SpanView &span,
               const AttemptSpan &w)
{
    // Indices of the failed primaries ahead of the winner, already in
    // send (= trigger) order because attempts are stored as sent.
    std::int32_t chain[kMaxSpanAttempts];
    std::size_t chainLen = 0;
    for (std::uint32_t i = 0; i < span.trace.stored; ++i) {
        const AttemptSpan &a = span.attempt(i);
        if (static_cast<std::int32_t>(i) == span.trace.winner ||
            a.hedged)
            continue;
        if (a.triggerAt == kNoTime || a.triggerAt >= w.triggerAt)
            continue;
        chain[chainLen++] = static_cast<std::int32_t>(i);
    }
    for (std::size_t k = 0; k < chainLen; ++k) {
        const AttemptSpan &p =
            span.attempt(static_cast<std::uint32_t>(chain[k]));
        if (p.clientSend == kNoTime || p.timeoutAt == kNoTime)
            return false;
        const SimTime nextTrigger =
            k + 1 < chainLen
                ? span.attempt(static_cast<std::uint32_t>(chain[k + 1]))
                      .triggerAt
                : w.triggerAt;
        if (!b.push(SegmentKind::ClientQueue, p.triggerAt,
                    p.clientSend, chain[k], -1))
            return false;
        if (!b.push(p.lbDropped ? SegmentKind::FailoverWait
                                : SegmentKind::TimeoutWait,
                    p.clientSend, p.timeoutAt, chain[k], p.backendId))
            return false;
        if (!b.push(SegmentKind::RetryBackoff, p.timeoutAt,
                    nextTrigger, chain[k], -1))
            return false;
    }
    return chainLen > 0;
}

} // namespace

bool
extractCriticalPath(const SpanView &view, CriticalPath &out)
{
    out.count = 0;
    if (!spanComplete(view))
        return false;
    const SpanTrace &span = view.trace;
    const AttemptSpan &w = span.winning;

    PathBuilder b(out, span.intendedSend);

    // --- Pre-win waits: how the clock got from intendedSend to the
    // winning attempt's trigger. ---
    if (w.triggerAt > span.intendedSend) {
        bool covered = false;
        if (w.cause == AttemptCause::Hedge && span.stored > 0 &&
            !view.attempt(0).hedged) {
            // The hedge fired while the primary sat unanswered: the
            // whole wait from the primary's send to the hedge trigger
            // is attributable to the backend the primary was on
            // (timeouts/backoffs inside that window are collapsed --
            // the client was waiting on *some* unanswered attempt
            // either way).
            const AttemptSpan &a0 = view.attempt(0);
            if (a0.clientSend != kNoTime &&
                a0.clientSend <= w.triggerAt) {
                covered =
                    b.push(SegmentKind::ClientQueue, span.intendedSend,
                           a0.clientSend, 0, -1) &&
                    b.push(SegmentKind::HedgeWait, a0.clientSend,
                           w.triggerAt, 0, a0.backendId);
            }
        } else if (w.cause == AttemptCause::Retry) {
            covered = pushRetryChain(b, view, w);
        }
        if (!covered || b.at() != w.triggerAt) {
            // Catch-all: retention overflow or a partial chain. Keep
            // the telescoping exact with one collapsed wait segment.
            b.restart(span.intendedSend);
            if (!b.push(w.cause == AttemptCause::Hedge
                            ? SegmentKind::HedgeWait
                            : SegmentKind::RetryBackoff,
                        span.intendedSend, w.triggerAt, -1, -1))
                return false;
        }
    }

    // --- The winning attempt's wire path, hop by hop. ---
    const std::int32_t wi = span.winner;
    bool ok = b.push(SegmentKind::ClientQueue, w.triggerAt,
                     w.clientSend, wi, -1) &&
              b.push(SegmentKind::NetRequest, w.clientSend,
                     w.nicArrival, wi, -1);
    if (ok && hasClusterStamps(w)) {
        ok = b.push(SegmentKind::RouterQueue, w.nicArrival,
                    w.workerStart, wi, -1) &&
             b.push(SegmentKind::RouterService, w.workerStart,
                    w.lbArrival, wi, -1) &&
             b.push(SegmentKind::LbQueue, w.lbArrival, w.lbDispatch,
                    wi, w.backendId) &&
             b.push(SegmentKind::FabricRequest, w.lbDispatch,
                    w.backendNicArrival, wi, w.backendId) &&
             b.push(SegmentKind::BackendQueue, w.backendNicArrival,
                    w.backendWorkerStart, wi, w.backendId) &&
             b.push(SegmentKind::BackendService, w.backendWorkerStart,
                    w.backendWorkerEnd, wi, w.backendId) &&
             b.push(SegmentKind::BackendNic, w.backendWorkerEnd,
                    w.backendNicDeparture, wi, w.backendId) &&
             b.push(SegmentKind::FabricResponse, w.backendNicDeparture,
                    w.routerReturn, wi, w.backendId) &&
             b.push(SegmentKind::RouterEgress, w.routerReturn,
                    w.workerEnd, wi, -1);
    } else if (ok) {
        ok = b.push(SegmentKind::ServerQueue, w.nicArrival,
                    w.workerStart, wi, w.backendId) &&
             b.push(SegmentKind::Service, w.workerStart, w.workerEnd,
                    wi, w.backendId);
    }
    ok = ok &&
         b.push(SegmentKind::ServerNic, w.workerEnd, w.nicDeparture,
                wi, -1) &&
         b.push(SegmentKind::NetResponse, w.nicDeparture,
                w.clientNicArrival, wi, -1) &&
         b.push(SegmentKind::ClientDeliver, w.clientNicArrival,
                w.clientReceive, wi, -1);
    if (!ok) {
        out.count = 0;
        return false;
    }
    out.startAt = span.intendedSend;
    out.endAt = span.clientReceive;
    return true;
}

SimDuration
ClusterDecomposition::totalNs() const
{
    SimDuration sum = 0;
    for (SimDuration n : ns)
        sum += n;
    return sum;
}

ClusterDecomposition
ClusterDecomposition::of(const SpanView &span)
{
    CriticalPath path;
    extractCriticalPath(span, path);
    return of(span, path);
}

ClusterDecomposition
ClusterDecomposition::of(const SpanView &view, const CriticalPath &path)
{
    ClusterDecomposition d;
    if (path.count == 0)
        return d;
    const SpanTrace &span = view.trace;
    for (std::size_t i = 0; i < path.count; ++i) {
        const PathSegment &seg = path.segments[i];
        d.ns[static_cast<std::size_t>(seg.kind)] += seg.ns();
    }
    d.endToEndNs = span.clientReceive - span.intendedSend;
    // Hedge-overlap diagnostic: both the primary and its hedge were in
    // flight from the hedge's send to the first response. Off the
    // critical path by definition -- overlap is what hedging buys.
    for (std::uint32_t i = 0; i < span.stored; ++i) {
        const AttemptSpan &a = view.attempt(i);
        if (a.hedged && a.clientSend != kNoTime &&
            a.clientSend < span.clientReceive) {
            d.hedgeOverlapNs = span.clientReceive - a.clientSend;
            break;
        }
    }
    d.valid = true;
    return d;
}

const std::vector<std::string> &
pathRowNames()
{
    static const std::vector<std::string> names = {
        "pre-win wait",  "client queue", "net request",
        "server queue",  "service",      "server nic",
        "net response",  "client deliver"};
    return names;
}

namespace {

/** The row a segment of the winning attempt falls in. */
std::size_t
winnerRowOf(SegmentKind kind)
{
    switch (kind) {
      case SegmentKind::ClientQueue:
        return 1;
      case SegmentKind::NetRequest:
        return 2;
      case SegmentKind::RouterQueue:
      case SegmentKind::ServerQueue:
        return 3;
      case SegmentKind::RouterService:
      case SegmentKind::LbQueue:
      case SegmentKind::FabricRequest:
      case SegmentKind::BackendQueue:
      case SegmentKind::BackendService:
      case SegmentKind::BackendNic:
      case SegmentKind::FabricResponse:
      case SegmentKind::RouterEgress:
      case SegmentKind::Service:
        return 4;
      case SegmentKind::ServerNic:
        return 5;
      case SegmentKind::NetResponse:
        return 6;
      case SegmentKind::ClientDeliver:
        return 7;
      case SegmentKind::TimeoutWait:
      case SegmentKind::FailoverWait:
      case SegmentKind::RetryBackoff:
      case SegmentKind::HedgeWait:
        break;
    }
    return 0;
}

} // namespace

std::array<SimDuration, kPathRowCount>
pathRowsNs(const CriticalPath &path, std::int32_t winner)
{
    std::array<SimDuration, kPathRowCount> rows{};
    for (std::size_t i = 0; i < path.count; ++i) {
        const PathSegment &seg = path.segments[i];
        rows[seg.attempt == winner ? winnerRowOf(seg.kind) : 0] +=
            seg.ns();
    }
    return rows;
}

SpanRecorder::SpanRecorder(const TraceConfig &config) : cfg(config)
{
    if (cfg.sampleEvery == 0)
        cfg.sampleEvery = 1;
}

void
SpanRecorder::reserveFor(std::size_t expected)
{
    if (!cfg.enabled)
        return;
    retained.reserve(std::min(
        expected / static_cast<std::size_t>(cfg.sampleEvery) + 1,
        cfg.maxTraces));
}

SpanLog
SpanRecorder::takeSpans()
{
    SpanLog out = std::move(retained);
    retained = SpanLog();
    return out;
}

namespace {

/** Emit a stamp into @p obj (microseconds) only when it is set, so
 *  partial attempt timelines serialize without sentinel noise. */
void
putStamp(json::Object &obj, const char *key, SimTime stamp)
{
    if (stamp != kNoTime)
        obj[key] = json::Value(toMicros(stamp));
}

json::Value
attemptToJson(const AttemptSpan &a)
{
    json::Object at;
    at["seq"] = json::Value(static_cast<std::int64_t>(a.seqId));
    at["attempt"] = json::Value(static_cast<std::int64_t>(a.attempt));
    at["cause"] = json::Value(attemptCauseName(a.cause));
    at["hedged"] = json::Value(a.hedged);
    at["won"] = json::Value(a.won);
    at["lb_dropped"] = json::Value(a.lbDropped);
    at["backend"] =
        json::Value(static_cast<std::int64_t>(a.backendId));
    at["lb_failovers"] =
        json::Value(static_cast<std::int64_t>(a.lbFailovers));
    putStamp(at, "trigger_us", a.triggerAt);
    putStamp(at, "client_send_us", a.clientSend);
    putStamp(at, "timeout_us", a.timeoutAt);
    putStamp(at, "nic_arrival_us", a.nicArrival);
    putStamp(at, "worker_start_us", a.workerStart);
    putStamp(at, "lb_arrival_us", a.lbArrival);
    putStamp(at, "lb_dispatch_us", a.lbDispatch);
    putStamp(at, "backend_nic_arrival_us", a.backendNicArrival);
    putStamp(at, "backend_worker_start_us", a.backendWorkerStart);
    putStamp(at, "backend_worker_end_us", a.backendWorkerEnd);
    putStamp(at, "backend_nic_departure_us", a.backendNicDeparture);
    putStamp(at, "router_return_us", a.routerReturn);
    putStamp(at, "worker_end_us", a.workerEnd);
    putStamp(at, "nic_departure_us", a.nicDeparture);
    putStamp(at, "client_nic_arrival_us", a.clientNicArrival);
    putStamp(at, "client_receive_us", a.clientReceive);
    return json::Value(std::move(at));
}

} // namespace

std::string
spanJson(const SpanLog &spans)
{
    json::Array rows;
    for (std::size_t k = 0; k < spans.size(); ++k) {
        const SpanView view = spans[k];
        const SpanTrace &s = view.trace;
        json::Object row;
        row["logical"] =
            json::Value(static_cast<std::int64_t>(s.logicalSeqId));
        row["client"] =
            json::Value(static_cast<std::int64_t>(s.clientIndex));
        row["conn"] =
            json::Value(static_cast<std::int64_t>(s.connectionId));
        row["op"] = json::Value(s.isGet ? "get" : "set");
        row["hit"] = json::Value(s.hit);
        putStamp(row, "intended_send_us", s.intendedSend);
        putStamp(row, "client_receive_us", s.clientReceive);
        row["attempt_count"] =
            json::Value(static_cast<std::int64_t>(s.attemptCount));
        row["winner"] =
            json::Value(static_cast<std::int64_t>(s.winner));
        json::Array attempts;
        for (std::uint32_t i = 0; i < s.stored; ++i)
            attempts.push_back(attemptToJson(view.attempt(i)));
        row["attempts"] = json::Value(std::move(attempts));
        rows.push_back(json::Value(std::move(row)));
    }
    json::Object doc;
    doc["spans"] = json::Value(std::move(rows));
    json::Object other;
    other["tool"] = json::Value("treadmill");
    other["schema"] = json::Value("span/1");
    doc["otherData"] = json::Value(std::move(other));
    return json::Value(std::move(doc)).dump();
}

namespace {

/** One "X" event on an attempt's lane. */
json::Value
attemptHopEvent(const SpanTrace &s, const AttemptSpan &a,
                const std::string &name, SimTime begin, SimTime end)
{
    json::Object ev;
    ev["name"] = json::Value(name);
    ev["cat"] = json::Value("attempt");
    ev["ph"] = json::Value("X");
    ev["ts"] = json::Value(toMicros(begin));
    ev["dur"] = json::Value(toMicros(end - begin));
    ev["pid"] = json::Value(static_cast<std::int64_t>(s.clientIndex));
    ev["tid"] = json::Value(static_cast<std::int64_t>(a.seqId));
    json::Object args;
    args["logical"] =
        json::Value(static_cast<std::int64_t>(s.logicalSeqId));
    args["attempt"] =
        json::Value(static_cast<std::int64_t>(a.attempt));
    args["cause"] = json::Value(attemptCauseName(a.cause));
    args["won"] = json::Value(a.won);
    if (a.backendId >= 0)
        args["backend"] =
            json::Value(static_cast<std::int64_t>(a.backendId));
    ev["args"] = json::Value(std::move(args));
    return json::Value(std::move(ev));
}

/** Tile one attempt's lane with every consecutive stamped hop. */
void
appendAttemptLane(json::Array &events, const SpanTrace &s,
                  const AttemptSpan &a)
{
    const auto &names = segmentKindNames();
    const auto nameOf = [&names](SegmentKind kind) {
        return names[static_cast<std::size_t>(kind)];
    };
    struct Hop {
        SimTime begin, end;
        SegmentKind kind;
    };
    const bool cluster = a.lbArrival != kNoTime;
    const Hop hops[] = {
        {a.triggerAt, a.clientSend, SegmentKind::ClientQueue},
        {a.clientSend, a.nicArrival, SegmentKind::NetRequest},
        {a.nicArrival, a.workerStart,
         cluster ? SegmentKind::RouterQueue
                 : SegmentKind::ServerQueue},
        {a.workerStart, a.lbArrival, SegmentKind::RouterService},
        {a.lbArrival, a.lbDispatch, SegmentKind::LbQueue},
        {a.lbDispatch, a.backendNicArrival,
         SegmentKind::FabricRequest},
        {a.backendNicArrival, a.backendWorkerStart,
         SegmentKind::BackendQueue},
        {a.backendWorkerStart, a.backendWorkerEnd,
         SegmentKind::BackendService},
        {a.backendWorkerEnd, a.backendNicDeparture,
         SegmentKind::BackendNic},
        {a.backendNicDeparture, a.routerReturn,
         SegmentKind::FabricResponse},
        {a.routerReturn, a.workerEnd, SegmentKind::RouterEgress},
        {a.workerStart, a.workerEnd, SegmentKind::Service},
        {a.workerEnd, a.nicDeparture, SegmentKind::ServerNic},
        {a.nicDeparture, a.clientNicArrival,
         SegmentKind::NetResponse},
        {a.clientNicArrival, a.clientReceive,
         SegmentKind::ClientDeliver},
    };
    for (const Hop &hop : hops) {
        // The classic path renders workerStart->workerEnd as one
        // "service" hop; the cluster path splits that interval via
        // the lb/fabric/backend stamps instead.
        if (hop.kind == SegmentKind::Service && cluster)
            continue;
        if (cluster &&
            (hop.kind == SegmentKind::ServerQueue))
            continue;
        if (!cluster &&
            (hop.kind == SegmentKind::RouterService ||
             hop.kind == SegmentKind::LbQueue ||
             hop.kind == SegmentKind::FabricRequest ||
             hop.kind == SegmentKind::BackendQueue ||
             hop.kind == SegmentKind::BackendService ||
             hop.kind == SegmentKind::BackendNic ||
             hop.kind == SegmentKind::FabricResponse ||
             hop.kind == SegmentKind::RouterEgress))
            continue;
        if (hop.begin == kNoTime || hop.end == kNoTime ||
            hop.end < hop.begin)
            continue;
        events.push_back(
            attemptHopEvent(s, a, nameOf(hop.kind), hop.begin,
                            hop.end));
    }
}

} // namespace

std::string
chromeSpanJson(const SpanLog &spans,
               const std::vector<TraceAnnotation> &annotations,
               const TelemetrySeries *telemetry)
{
    json::Array events;

    // Telemetry gauges render as counter tracks on their own process.
    if (telemetry != nullptr)
        appendChromeCounterEvents(events, *telemetry);

    // Fault windows (and other annotations) live on their own process
    // so they render as a separate swim-lane above the attempt lanes.
    if (!annotations.empty()) {
        const std::int64_t faultPid = -1;
        json::Object meta;
        meta["name"] = json::Value("process_name");
        meta["ph"] = json::Value("M");
        meta["pid"] = json::Value(faultPid);
        json::Object metaArgs;
        metaArgs["name"] = json::Value("faults");
        meta["args"] = json::Value(std::move(metaArgs));
        events.push_back(json::Value(std::move(meta)));
        for (const TraceAnnotation &a : annotations) {
            json::Object ev;
            ev["name"] = json::Value(a.name);
            ev["cat"] = json::Value("fault");
            ev["ph"] = json::Value("X");
            ev["ts"] = json::Value(toMicros(a.start));
            ev["dur"] = json::Value(toMicros(a.end - a.start));
            ev["pid"] = json::Value(faultPid);
            ev["tid"] = json::Value(static_cast<std::int64_t>(0));
            events.push_back(json::Value(std::move(ev)));
        }
    }

    std::set<std::uint64_t> clients;
    for (std::size_t k = 0; k < spans.size(); ++k)
        clients.insert(spans[k].trace.clientIndex);
    for (std::uint64_t client : clients) {
        json::Object meta;
        meta["name"] = json::Value("process_name");
        meta["ph"] = json::Value("M");
        meta["pid"] = json::Value(static_cast<std::int64_t>(client));
        json::Object args;
        args["name"] = json::Value(
            strprintf("client %llu",
                      static_cast<unsigned long long>(client)));
        meta["args"] = json::Value(std::move(args));
        events.push_back(json::Value(std::move(meta)));
    }

    for (std::size_t k = 0; k < spans.size(); ++k) {
        const SpanView view = spans[k];
        const SpanTrace &s = view.trace;
        for (std::uint32_t i = 0; i < s.stored; ++i) {
            const AttemptSpan &a = view.attempt(i);
            json::Object meta;
            meta["name"] = json::Value("thread_name");
            meta["ph"] = json::Value("M");
            meta["pid"] =
                json::Value(static_cast<std::int64_t>(s.clientIndex));
            meta["tid"] =
                json::Value(static_cast<std::int64_t>(a.seqId));
            json::Object args;
            args["name"] = json::Value(strprintf(
                "%llu/%s#%u%s",
                static_cast<unsigned long long>(s.logicalSeqId),
                attemptCauseName(a.cause), a.attempt,
                a.won ? " win" : ""));
            meta["args"] = json::Value(std::move(args));
            events.push_back(json::Value(std::move(meta)));
            appendAttemptLane(events, s, a);
        }
    }

    json::Object doc;
    doc["traceEvents"] = json::Value(std::move(events));
    doc["displayTimeUnit"] = json::Value("ms");
    json::Object other;
    other["tool"] = json::Value("treadmill");
    other["schema"] = json::Value("span-lanes/1");
    doc["otherData"] = json::Value(std::move(other));
    return json::Value(std::move(doc)).dump();
}

std::string
decompositionCsv(const SpanLog &spans)
{
    std::string out =
        "seq_id,client,op,hit,pre_win_us,client_queue_us,"
        "net_request_us,server_queue_us,service_us,server_nic_us,"
        "net_response_us,client_deliver_us,component_sum_us,"
        "end_to_end_us\n";
    CriticalPath path;
    for (std::size_t k = 0; k < spans.size(); ++k) {
        const SpanView view = spans[k];
        if (!extractCriticalPath(view, path))
            continue;
        const SpanTrace &s = view.trace;
        out += strprintf(
            "%llu,%llu,%s,%d",
            static_cast<unsigned long long>(s.winning.seqId),
            static_cast<unsigned long long>(s.clientIndex),
            s.isGet ? "get" : "set", s.hit ? 1 : 0);
        double sumUs = 0.0;
        for (SimDuration ns : pathRowsNs(path, s.winner)) {
            sumUs += toMicros(ns);
            out += strprintf(",%.3f", toMicros(ns));
        }
        out += strprintf(",%.3f,%.3f\n", sumUs, s.endToEndUs());
    }
    return out;
}

} // namespace obs
} // namespace treadmill
