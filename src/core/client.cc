#include "core/client.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/logging.h"
#include "util/strings.h"

namespace treadmill {
namespace core {

namespace {

/** Connection ids are unique across instances. */
std::uint64_t
globalConnectionId(std::size_t instance, std::uint64_t local)
{
    return (static_cast<std::uint64_t>(instance) << 32) | local;
}

/** Metric-name prefix of one instance ("client3."). */
std::string
metricPrefix(std::size_t index)
{
    return strprintf("client%zu.", index);
}

} // namespace

LoadTesterInstance::LoadTesterInstance(sim::Simulation &sim_,
                                       const ClientParams &params,
                                       const WorkloadConfig &workload_,
                                       TransmitFn transmit_)
    : sim(sim_), cfg(params),
      workload(workload_,
               Rng(0x1f0adbeefcafe11ull).substream(params.seed * 3 + 1)),
      transmit(std::move(transmit_)),
      samples(params.collector,
              Rng(0x1f0adbeefcafe22ull).substream(params.seed * 3 + 2)),
      rng(Rng(0x1f0adbeefcafe33ull).substream(params.seed * 3 + 3)),
      resilienceRng(
          Rng(0x1f0adbeefcafe44ull).substream(params.seed * 3 + 4)),
      issuedCounter(sim_.metrics().counter(
          metricPrefix(params.index) + "issued")),
      receivedCounter(sim_.metrics().counter(
          metricPrefix(params.index) + "received")),
      timeoutsCounter(sim_.metrics().counter(
          metricPrefix(params.index) + "timeouts")),
      retriesCounter(sim_.metrics().counter(
          metricPrefix(params.index) + "retries")),
      hedgesCounter(sim_.metrics().counter(
          metricPrefix(params.index) + "hedges")),
      hedgeWinsCounter(sim_.metrics().counter(
          metricPrefix(params.index) + "hedge_wins")),
      failedCounter(sim_.metrics().counter(
          metricPrefix(params.index) + "failed")),
      lateCounter(sim_.metrics().counter(
          metricPrefix(params.index) + "late_responses")),
      sendSlipHist(sim_.metrics().histogram(
          metricPrefix(params.index) + "send_slip_us")),
      outstandingHist(sim_.metrics().histogram(
          metricPrefix(params.index) + "outstanding_at_send")),
      outstandingGauge(sim_.metrics().gauge(
          metricPrefix(params.index) + "outstanding"))
{
    TM_ASSERT(transmit != nullptr, "client needs a transmit callback");

    const ResiliencePolicy &res = cfg.resilience;
    if (res.enabled) {
        if (res.maxRetries > 0 && res.timeoutUs <= 0.0)
            throw ConfigError(
                "retries need a positive resilience timeout");
        if (res.timeoutUs < 0.0 || res.backoffBaseUs < 0.0 ||
            res.backoffCapUs < 0.0 || res.hedgeDelayUs < 0.0)
            throw ConfigError("resilience delays must be non-negative");
        if (res.jitterFraction < 0.0 || res.jitterFraction >= 1.0)
            throw ConfigError("jitterFraction must lie in [0, 1)");
        if (res.hedge && res.hedgeDelayUs <= 0.0)
            throw ConfigError("hedging needs hedgeDelayUs > 0");
    }
    // Two instances with one index would add into one set of counters.
    sim.metrics().claimScope(strprintf("client%zu", cfg.index));

    // Pre-size the per-send outstanding log for the whole run (the
    // slack covers timeouts/hedges issuing more attempts than
    // samples); steady-state sends then never grow the vector.
    const SampleCollector::Params &col = cfg.collector;
    outstandingSamples.reserve(
        (col.warmUpSamples + col.calibrationSamples +
         col.measurementSamples) *
            5 / 4 +
        1024);

    if (cfg.loop == ControlLoop::OpenLoop) {
        controller = std::make_unique<OpenLoopController>(
            sim, cfg.requestsPerSecond, rng.substream(7));
    } else {
        controller = std::make_unique<ClosedLoopController>(
            sim, cfg.closedLoopSlots,
            cfg.rateLimitedClosedLoop ? cfg.requestsPerSecond : 0.0);
    }
}

void
LoadTesterInstance::start()
{
    controller->start(
        [this](SimTime intendedSend) { issueRequest(intendedSend); });
}

void
LoadTesterInstance::stopLoad()
{
    controller->stop();
}

// tmlint:hot-path-begin -- everything from issueRequest to response
// delivery runs once (or more, under retries/hedges) per request.
void
LoadTesterInstance::issueRequest(SimTime intendedSend)
{
    server::Request *request = requestPool.make();
    request->seqId =
        (static_cast<std::uint64_t>(cfg.index) << 40) | nextSeq++;
    request->logicalSeqId = request->seqId;
    request->clientIndex = cfg.index;
    request->connectionId = globalConnectionId(
        cfg.index, nextConnection++ % kConnections);
    workload.fill(*request);
    request->intendedSend = intendedSend;
    // The scheduled first attempt is triggered the instant the
    // open-loop schedule meant it to go; clones re-stamp this.
    request->triggerAt = intendedSend;

    outstandingSamples.push_back(outstandingCount);
    outstandingHist.record(static_cast<double>(outstandingCount));
    ++outstandingCount;
    outstandingGauge.set(static_cast<double>(outstandingCount));
    issuedCounter.add();

    if (cfg.resilience.enabled) {
        PendingState state;
        state.proto = *request;
        state.retriesLeft = cfg.resilience.maxRetries;
        if (cfg.recordSpans) {
            state.held[0] = request;
            state.heldCount = 1;
            state.lastPrimaryHeld = 0;
        }
        pending.insertOrAssign(request->logicalSeqId, state);
    }

    transmitAttempt(request);
}

void
LoadTesterInstance::transmitAttempt(server::Request *request)
{
    // Request construction occupies the client CPU; an overloaded
    // client delays the actual transmission (client-side queueing).
    const SimTime startProcessing = std::max(sim.now(), cpuFreeAt);
    const auto cost =
        static_cast<SimDuration>(microseconds(cfg.sendCostUs));
    cpuFreeAt = startProcessing + cost;
    cpuBusy += cost;
    sim.countEvent(sim::EventTag::ClientSend);
    sim.scheduleAt(cpuFreeAt, [this, request] {
        request->clientSend = sim.now();
        // Send slip: how far the actual send drifted from the
        // open-loop schedule (the client-queueing bias, Fig 3).
        // Retries and hedges are not scheduled sends, so they are
        // excluded -- their slip is policy delay, not client queueing.
        if (request->attempt == 0 && !request->hedged) {
            sendSlipHist.record(
                toMicros(request->clientSend - request->intendedSend));
        }
        // The response is consumed in a later event at the earliest,
        // so the attempt is still live after transmit().
        transmit(request);
        if (cfg.resilience.enabled)
            armAttempt(*request);
    });
}

void
LoadTesterInstance::armAttempt(const server::Request &request)
{
    PendingState *found = pending.find(request.logicalSeqId);
    if (found == nullptr)
        return; // Answered while this attempt queued on the CPU.
    PendingState &state = *found;
    const ResiliencePolicy &res = cfg.resilience;
    const std::uint64_t logicalId = request.logicalSeqId;

    // The per-attempt timeout runs from the actual send instant.
    // Hedges carry no timeout of their own; the primary attempt's
    // timeout (and retry budget) stays authoritative.
    if (!request.hedged && res.timeoutUs > 0.0) {
        state.timeoutEvent = sim.schedule(
            static_cast<SimDuration>(microseconds(res.timeoutUs)),
            [this, logicalId] { onTimeout(logicalId); });
    }

    if (request.attempt == 0 && !request.hedged && res.hedge) {
        state.hedgeEvent = sim.schedule(
            static_cast<SimDuration>(microseconds(res.hedgeDelayUs)),
            [this, logicalId] { onHedgeTimer(logicalId); });
    }
}

void
LoadTesterInstance::onTimeout(std::uint64_t logicalId)
{
    PendingState *found = pending.find(logicalId);
    if (found == nullptr)
        return;
    PendingState &state = *found;
    state.timeoutEvent = 0;
    if (state.heldCount > 0) {
        // Span bookkeeping: the newest primary attempt just timed
        // out. Only the first firing counts -- the awaitingHedge
        // grace window re-arms the same event for the same attempt.
        server::Request &primary = *state.held[state.lastPrimaryHeld];
        if (primary.timeoutAt == kNoTime)
            primary.timeoutAt = sim.now();
    }
    timeoutsCounter.add();
    sim.countEvent(sim::EventTag::ClientTimeout);
    const ResiliencePolicy &res = cfg.resilience;

    if (state.retriesLeft == 0) {
        if (state.hedgeSent && !state.awaitingHedge &&
            res.timeoutUs > 0.0) {
            // Retries are exhausted, but a hedge attempt is still in
            // flight -- it may yet answer. Grant it one final timeout
            // window instead of failing a request whose backup is
            // about to deliver (and then counting that delivery as a
            // late response).
            state.awaitingHedge = true;
            state.timeoutEvent = sim.schedule(
                static_cast<SimDuration>(microseconds(res.timeoutUs)),
                [this, logicalId] { onTimeout(logicalId); });
            return;
        }
        // Retry budget exhausted: the logical request failed. Release
        // its slot so a closed loop does not deadlock, and record no
        // latency sample -- a fabricated timeout-latency would distort
        // exactly the tail this subsystem exists to expose.
        if (state.hedgeEvent != 0)
            sim.cancel(state.hedgeEvent);
        if (state.retryEvent != 0)
            sim.cancel(state.retryEvent);
        pending.erase(logicalId);
        failedCounter.add();
        TM_ASSERT(outstandingCount > 0,
                  "failure without an outstanding request");
        --outstandingCount;
        outstandingGauge.set(static_cast<double>(outstandingCount));
        controller->onResponse();
        return;
    }

    --state.retriesLeft;
    double delayUs =
        std::min(res.backoffCapUs,
                 res.backoffBaseUs *
                     std::pow(2.0, static_cast<double>(
                                       state.attemptsSent - 1)));
    // Deterministic jitter from the client's private resilience
    // stream: +/-jitterFraction, uniform.
    delayUs *= 1.0 + res.jitterFraction *
                         (2.0 * resilienceRng.nextDouble() - 1.0);
    // The clone is built when the backoff elapses, not here: a
    // response landing during the wait erases the pending entry and
    // cancels retryEvent, so a completed request can never spawn a
    // zombie attempt (which would double-send and inflate load).
    state.retryEvent = sim.schedule(
        static_cast<SimDuration>(microseconds(delayUs)),
        [this, logicalId] { onRetryTimer(logicalId); });
}

void
LoadTesterInstance::onRetryTimer(std::uint64_t logicalId)
{
    PendingState *found = pending.find(logicalId);
    if (found == nullptr)
        return; // Answered during the backoff wait.
    PendingState &state = *found;
    state.retryEvent = 0;
    retriesCounter.add();
    sim.countEvent(sim::EventTag::ClientRetry);
    transmitAttempt(cloneAttempt(state, /*hedged=*/false));
}

void
LoadTesterInstance::onHedgeTimer(std::uint64_t logicalId)
{
    PendingState *found = pending.find(logicalId);
    if (found == nullptr)
        return;
    PendingState &state = *found;
    state.hedgeEvent = 0;
    if (state.hedgeSent)
        return;
    state.hedgeSent = true;
    hedgesCounter.add();
    sim.countEvent(sim::EventTag::ClientHedge);
    transmitAttempt(cloneAttempt(state, /*hedged=*/true));
}

server::Request *
LoadTesterInstance::cloneAttempt(PendingState &state, bool hedged)
{
    server::Request *request = requestPool.make(state.proto);
    request->seqId =
        (static_cast<std::uint64_t>(cfg.index) << 40) | nextSeq++;
    request->attempt = state.attemptsSent++;
    request->hedged = hedged;
    request->cause =
        hedged ? obs::AttemptCause::Hedge : obs::AttemptCause::Retry;
    // The clone is triggered *now* (backoff/hedge timer firing), not
    // at the proto's intendedSend.
    request->triggerAt = sim.now();
    // Hedges go out on a different connection so RSS steers them to a
    // different interrupt queue (the point of a backup request).
    if (hedged) {
        request->connectionId = globalConnectionId(
            cfg.index, nextConnection++ % kConnections);
    }
    if (cfg.recordSpans && state.heldCount < obs::kMaxSpanAttempts) {
        if (!hedged)
            state.lastPrimaryHeld = state.heldCount;
        state.held[state.heldCount++] = request;
    }
    return request;
}

void
LoadTesterInstance::onResponseDelivered(server::Request *request)
{
    // Kernel interrupt handling between NIC and user code: the fixed
    // offset the paper observes between tcpdump and tester curves.
    const auto kernel =
        static_cast<SimDuration>(microseconds(kKernelDelayUs));
    sim.countEvent(sim::EventTag::ClientKernel);
    sim.schedule(kernel, [this, request] {
        // Response callback executes on the client CPU (inline, as
        // with wangle, but it still queues if the CPU is busy).
        const SimTime startProcessing = std::max(sim.now(), cpuFreeAt);
        const auto cost =
            static_cast<SimDuration>(microseconds(cfg.receiveCostUs));
        cpuFreeAt = startProcessing + cost;
        cpuBusy += cost;
        sim.countEvent(sim::EventTag::ClientReceive);
        sim.scheduleAt(cpuFreeAt, [this, request] {
            request->clientReceive = sim.now();

            if (cfg.resilience.enabled) {
                PendingState *found =
                    pending.find(request->logicalSeqId);
                if (found == nullptr) {
                    // The logical request already completed (another
                    // attempt won) or failed: this response is late.
                    lateCounter.add();
                    requestPool.release(request);
                    return;
                }
                PendingState &state = *found;
                if (state.timeoutEvent != 0)
                    sim.cancel(state.timeoutEvent);
                if (state.hedgeEvent != 0)
                    sim.cancel(state.hedgeEvent);
                if (state.retryEvent != 0)
                    sim.cancel(state.retryEvent);
                if (request->hedged)
                    hedgeWinsCounter.add();
                if (cfg.recordSpans && spanSink)
                    recordSpan(&state, *request);
                pending.erase(request->logicalSeqId);
            } else if (cfg.recordSpans && spanSink) {
                recordSpan(nullptr, *request);
            }

            TM_ASSERT(outstandingCount > 0,
                      "response without an outstanding request");
            --outstandingCount;
            outstandingGauge.set(
                static_cast<double>(outstandingCount));
            receivedCounter.add();
            // Responses after the measurement window closed are
            // dropped by the collector; surface them explicitly.
            if (samples.done())
                lateCounter.add();
            samples.add(request->clientLatencyUs());
            controller->onResponse();
            if (completionHook)
                completionHook(*request);
            requestPool.release(request);
        });
    });
}

void
LoadTesterInstance::recordSpan(const PendingState *state,
                               const server::Request &winner)
{
    obs::SpanTrace &span = spanScratch;
    span.logicalSeqId = winner.logicalSeqId;
    span.clientIndex = winner.clientIndex;
    span.isGet = winner.op == server::OpType::Get;
    span.hit = winner.hit;
    span.intendedSend = winner.intendedSend;
    span.clientReceive = winner.clientReceive;

    if (state == nullptr || state->heldCount == 0) {
        // Single wire attempt: the winner is the whole span.
        span.connectionId = winner.connectionId;
        span.attemptCount = 1;
        span.stored = 1;
        span.winner = 0;
        span.winning = winner;
        span.winning.won = true;
        spanSink(obs::SpanView{span, nullptr});
        return;
    }

    span.connectionId = state->proto.connectionId;
    span.attemptCount = state->attemptsSent;
    const std::uint32_t n = state->heldCount;
    // Retention may have overflowed past the winning attempt: then it
    // evicts the last loser, so the span always carries the winner's
    // complete timeline (attemptCount still reports the true total).
    const server::Request *won = &winner;
    std::uint32_t w = n - 1;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (state->held[i]->seqId == winner.seqId) {
            won = state->held[i];
            w = i;
            break;
        }
    }
    std::uint32_t losers = 0;
    for (std::uint32_t i = 0; i < n; ++i)
        if (i != w)
            loserScratch[losers++] = *state->held[i];
    span.winning = *won;
    span.winning.won = true;
    span.winner = static_cast<std::int32_t>(w);
    span.stored = n;
    spanSink(obs::SpanView{span, loserScratch.data()});
}
// tmlint:hot-path-end

double
LoadTesterInstance::cpuUtilization() const
{
    const SimTime elapsed = sim.now();
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(std::min<SimDuration>(cpuBusy, elapsed)) /
           static_cast<double>(elapsed);
}

} // namespace core
} // namespace treadmill
