#include "obs/span.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <set>
#include <span>

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

/** One AttemptSpan stamp and its span-JSON key. */
struct Stamp {
    SimTime AttemptSpan::*at;
    const char *key;
    /** On the wire chain attemptMonotonic() orders (the timeout is a
     *  client-side instant off that chain). */
    bool chained;
};

/** Every AttemptSpan stamp, in lifecycle order. */
constexpr Stamp kStamps[] = {
    {&AttemptSpan::triggerAt, "trigger_us", true},
    {&AttemptSpan::clientSend, "client_send_us", true},
    {&AttemptSpan::timeoutAt, "timeout_us", false},
    {&AttemptSpan::nicArrival, "nic_arrival_us", true},
    {&AttemptSpan::workerStart, "worker_start_us", true},
    {&AttemptSpan::lbArrival, "lb_arrival_us", true},
    {&AttemptSpan::lbDispatch, "lb_dispatch_us", true},
    {&AttemptSpan::backendNicArrival, "backend_nic_arrival_us", true},
    {&AttemptSpan::backendWorkerStart, "backend_worker_start_us", true},
    {&AttemptSpan::backendWorkerEnd, "backend_worker_end_us", true},
    {&AttemptSpan::backendNicDeparture, "backend_nic_departure_us",
     true},
    {&AttemptSpan::routerReturn, "router_return_us", true},
    {&AttemptSpan::workerEnd, "worker_end_us", true},
    {&AttemptSpan::nicDeparture, "nic_departure_us", true},
    {&AttemptSpan::clientNicArrival, "client_nic_arrival_us", true},
    {&AttemptSpan::clientReceive, "client_receive_us", true},
};
static_assert(std::size(kStamps) * sizeof(SimTime) ==
                  sizeof(AttemptSpan) - offsetof(AttemptSpan, triggerAt),
              "every AttemptSpan stamp is in kStamps");

/** One hop of an attempt's wire path. */
struct Hop {
    SegmentKind kind;
    SimTime AttemptSpan::*begin;
    SimTime AttemptSpan::*end;
    /** The hop's time is attributable to the attempt's backend. */
    bool backend;
};

/** The classic tier's wire path: client, one server, client. */
constexpr Hop kClassicHops[] = {
    {SegmentKind::ClientQueue, &AttemptSpan::triggerAt,
     &AttemptSpan::clientSend, false},
    {SegmentKind::NetRequest, &AttemptSpan::clientSend,
     &AttemptSpan::nicArrival, false},
    {SegmentKind::ServerQueue, &AttemptSpan::nicArrival,
     &AttemptSpan::workerStart, true},
    {SegmentKind::Service, &AttemptSpan::workerStart,
     &AttemptSpan::workerEnd, true},
    {SegmentKind::ServerNic, &AttemptSpan::workerEnd,
     &AttemptSpan::nicDeparture, false},
    {SegmentKind::NetResponse, &AttemptSpan::nicDeparture,
     &AttemptSpan::clientNicArrival, false},
    {SegmentKind::ClientDeliver, &AttemptSpan::clientNicArrival,
     &AttemptSpan::clientReceive, false},
};

/** The cluster tier's wire path: the router's worker interval split
 *  into balancer, fabric and backend hops. */
constexpr Hop kClusterHops[] = {
    {SegmentKind::ClientQueue, &AttemptSpan::triggerAt,
     &AttemptSpan::clientSend, false},
    {SegmentKind::NetRequest, &AttemptSpan::clientSend,
     &AttemptSpan::nicArrival, false},
    {SegmentKind::RouterQueue, &AttemptSpan::nicArrival,
     &AttemptSpan::workerStart, false},
    {SegmentKind::RouterService, &AttemptSpan::workerStart,
     &AttemptSpan::lbArrival, false},
    {SegmentKind::LbQueue, &AttemptSpan::lbArrival,
     &AttemptSpan::lbDispatch, true},
    {SegmentKind::FabricRequest, &AttemptSpan::lbDispatch,
     &AttemptSpan::backendNicArrival, true},
    {SegmentKind::BackendQueue, &AttemptSpan::backendNicArrival,
     &AttemptSpan::backendWorkerStart, true},
    {SegmentKind::BackendService, &AttemptSpan::backendWorkerStart,
     &AttemptSpan::backendWorkerEnd, true},
    {SegmentKind::BackendNic, &AttemptSpan::backendWorkerEnd,
     &AttemptSpan::backendNicDeparture, true},
    {SegmentKind::FabricResponse, &AttemptSpan::backendNicDeparture,
     &AttemptSpan::routerReturn, true},
    {SegmentKind::RouterEgress, &AttemptSpan::routerReturn,
     &AttemptSpan::workerEnd, false},
    {SegmentKind::ServerNic, &AttemptSpan::workerEnd,
     &AttemptSpan::nicDeparture, false},
    {SegmentKind::NetResponse, &AttemptSpan::nicDeparture,
     &AttemptSpan::clientNicArrival, false},
    {SegmentKind::ClientDeliver, &AttemptSpan::clientNicArrival,
     &AttemptSpan::clientReceive, false},
};

using Hops = std::span<const Hop>;

/** The hop table of one tier. */
Hops
hopsOf(bool cluster)
{
    return cluster ? Hops(kClusterHops) : Hops(kClassicHops);
}

/** True when every stamp @p hops reads is set on @p a. */
bool
stamped(const AttemptSpan &a, Hops hops)
{
    for (const Hop &hop : hops)
        if (a.*hop.begin == kNoTime || a.*hop.end == kNoTime)
            return false;
    return true;
}

/** Per-kind facts, indexed by SegmentKind. */
struct KindInfo {
    const char *name;
    /** Grouping::Row row of a winning-attempt segment of this kind (a
     *  losing attempt's segments are all row 0, pre-win wait). */
    std::size_t row;
};

constexpr KindInfo kKinds[] = {
    {"client queue", 1},   {"timeout wait", 0},   {"failover wait", 0},
    {"retry backoff", 0},  {"hedge wait", 0},     {"net request", 2},
    {"router queue", 3},   {"router service", 4}, {"lb queue", 4},
    {"fabric request", 4}, {"backend queue", 4},  {"backend service", 4},
    {"backend nic", 4},    {"fabric response", 4}, {"router egress", 4},
    {"server queue", 3},   {"service", 4},        {"server nic", 5},
    {"net response", 6},   {"client deliver", 7},
};
static_assert(std::size(kKinds) == kSegmentKindCount,
              "one kKinds row per SegmentKind");

/** Per-row facts, indexed by Grouping::Row row. */
struct RowInfo {
    const char *name;
    /** The row's Grouping::Fig3 column (an index into kFig3Names). */
    std::size_t fig3;
};

constexpr RowInfo kRows[] = {
    {"pre-win wait", 2}, {"client queue", 2}, {"net request", 1},
    {"server queue", 0}, {"service", 0},      {"server nic", 0},
    {"net response", 1}, {"client deliver", 2},
};

constexpr const char *kFig3Names[] = {"server", "network", "client"};

/** The name column of a facts table. */
template <typename Info, std::size_t N>
std::vector<std::string>
namesOf(const Info (&infos)[N])
{
    std::vector<std::string> out;
    for (const Info &info : infos)
        out.emplace_back(info.name);
    return out;
}

} // namespace

bool
attemptMonotonic(const AttemptSpan &a)
{
    SimTime last = 0;
    for (const Stamp &stamp : kStamps) {
        const SimTime at = a.*stamp.at;
        if (!stamp.chained || at == kNoTime)
            continue;
        if (at < last)
            return false;
        last = at;
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
    // The end-to-end timeline: every stamp of the classic hop chain,
    // which the cluster chain refines.
    if (!stamped(w, kClassicHops))
        return false;
    return w.triggerAt >= span.intendedSend &&
           w.clientReceive == span.clientReceive;
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

    // --- The winning attempt's wire path, hop by hop: the cluster
    // chain when the attempt carries all of it, else the classic one.
    for (const Hop &hop : hopsOf(stamped(w, kClusterHops))) {
        if (!b.push(hop.kind, w.*hop.begin, w.*hop.end, span.winner,
                    hop.backend ? w.backendId : -1)) {
            out.count = 0;
            return false;
        }
    }
    out.startAt = span.intendedSend;
    out.endAt = span.clientReceive;
    return true;
}

const std::vector<std::string> &
columnNames(Grouping grouping)
{
    static const std::vector<std::string> names[] = {
        namesOf(kKinds), namesOf(kRows),
        {std::begin(kFig3Names), std::end(kFig3Names)}};
    return names[static_cast<std::size_t>(grouping)];
}

Columns
columnsNs(const CriticalPath &path, std::int32_t winner,
          Grouping grouping)
{
    Columns out;
    out.count = columnNames(grouping).size();
    for (std::size_t i = 0; i < path.count; ++i) {
        const PathSegment &seg = path.segments[i];
        const auto kind = static_cast<std::size_t>(seg.kind);
        const std::size_t row =
            seg.attempt == winner ? kKinds[kind].row : 0;
        const std::size_t column =
            grouping == Grouping::Segment ? kind
            : grouping == Grouping::Row   ? row
                                          : kRows[row].fig3;
        out.ns[column] += seg.ns();
    }
    return out;
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
    for (const Stamp &stamp : kStamps)
        putStamp(at, stamp.key, a.*stamp.at);
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
                const char *name, SimTime begin, SimTime end)
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

/** Tile one attempt's lane with every stamped hop of its tier's
 *  chain: the cluster chain once the attempt reached a balancer. */
void
appendAttemptLane(json::Array &events, const SpanTrace &s,
                  const AttemptSpan &a)
{
    for (const Hop &hop : hopsOf(a.lbArrival != kNoTime)) {
        const SimTime begin = a.*hop.begin;
        const SimTime end = a.*hop.end;
        if (begin == kNoTime || end == kNoTime || end < begin)
            continue;
        events.push_back(attemptHopEvent(
            s, a, kKinds[static_cast<std::size_t>(hop.kind)].name, begin,
            end));
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
        for (SimDuration ns : columnsNs(path, s.winner, Grouping::Row)) {
            sumUs += toMicros(ns);
            out += strprintf(",%.3f", toMicros(ns));
        }
        out += strprintf(",%.3f,%.3f\n", sumUs, s.endToEndUs());
    }
    return out;
}

} // namespace obs
} // namespace treadmill
