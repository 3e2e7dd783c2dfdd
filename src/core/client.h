/**
 * @file
 * A load-tester instance on its own client machine.
 *
 * Each instance owns a controller (open- or closed-loop), a workload
 * generator, a sample collector, and a model of the client machine's
 * CPU: send construction and response-callback processing occupy the
 * client CPU, so an overloaded client queues -- the client-side
 * queueing bias of paper S II-C. A fixed kernel interrupt-handling
 * delay (LoadTesterInstance::kKernelDelayUs) sits between the client
 * NIC and user code, producing the constant offset the paper observes
 * between tcpdump and load-tester measurements (Figs 5-6).
 */

#ifndef TREADMILL_CORE_CLIENT_H_
#define TREADMILL_CORE_CLIENT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/collector.h"
#include "core/controller.h"
#include "core/workload.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "server/request.h"
#include "sim/simulation.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace treadmill {
namespace core {

/**
 * Client-side failure handling: per-request timeout, capped-backoff
 * retry, and hedged (backup) requests.
 *
 * Latency discipline: all attempts of one logical request share the
 * original intendedSend stamp, so the recorded latency spans from the
 * instant the open-loop schedule meant to issue the request to the
 * first response -- retries and hedges make the tail *visible*, they
 * never reset the clock (paper S II's open-loop measurement rule).
 * Timed-out requests that exhaust their retries are counted as
 * failures, not recorded as fabricated latency samples.
 *
 * Disabled (the default), the client request path is byte-identical
 * to a build without this struct: no state, events, or Rng draws.
 */
struct ResiliencePolicy {
    bool enabled = false;

    /** Per-attempt timeout; 0 disables timeouts (and thus retries). */
    double timeoutUs = 0.0;

    /** @name Retry (after a timeout)
     * Retry k waits min(backoffCapUs, backoffBaseUs * 2^(k-1)),
     * scaled by a deterministic uniform jitter of +/-jitterFraction.
     * @{ */
    unsigned maxRetries = 0;
    double backoffBaseUs = 100.0;
    double backoffCapUs = 10000.0;
    double jitterFraction = 0.1;
    /** @} */

    /** @name Hedging
     * After hedgeDelayUs (required > 0 when hedging) without a
     * response, send one backup copy; first answer wins.
     * @{ */
    bool hedge = false;
    double hedgeDelayUs = 0.0;
    /** @} */
};

/** Configuration of one load-tester instance. */
struct ClientParams {
    std::size_t index = 0; ///< Instance number (also the seq-id space).
    /** Open-loop issue rate for this instance. */
    double requestsPerSecond = 10000.0;
    ControlLoop loop = ControlLoop::OpenLoop;
    /** Outstanding slots when loop == ClosedLoop. */
    unsigned closedLoopSlots = 8;
    /** Pace the closed loop at requestsPerSecond (Mutilate's
     *  target-QPS mode); false = saturating worker loop. */
    bool rateLimitedClosedLoop = true;
    SampleCollector::Params collector;
    /** @name Client machine model
     * @{
     */
    double sendCostUs = 1.0;    ///< CPU time to build + send a request.
    double receiveCostUs = 1.2; ///< CPU time for the response callback.
    /** @} */
    ResiliencePolicy resilience;
    /**
     * Build a span (the per-attempt tree) for every completed
     * logical request and hand it to the span sink. Off by
     * default: with it off the request path touches no span state at
     * all -- attempts are not retained and no stamps are copied.
     */
    bool recordSpans = false;
    std::uint64_t seed = 1;
};

/** One running load-tester instance. */
class LoadTesterInstance
{
  public:
    /** Hands a fully built request to the harness for transmission. */
    using TransmitFn = std::function<void(server::RequestPtr)>;

    /** Connections each instance multiplexes its requests over. */
    static constexpr unsigned kConnections = 16;
    /** NIC-to-user interrupt handling on the client machine, us. */
    static constexpr double kKernelDelayUs = 30.0;

    /**
     * @param sim Owning simulation.
     * @param params Instance configuration.
     * @param workload Workload description.
     * @param transmit Called when a request leaves the client NIC.
     */
    LoadTesterInstance(sim::Simulation &sim, const ClientParams &params,
                       const WorkloadConfig &workload,
                       TransmitFn transmit);

    LoadTesterInstance(const LoadTesterInstance &) = delete;
    LoadTesterInstance &operator=(const LoadTesterInstance &) = delete;

    /** Begin generating load. */
    void start();

    /** Stop issuing new requests (in-flight ones still complete). */
    void stopLoad();

    /** The harness delivers a response packet arriving at this
     *  client's NIC. */
    void onResponseDelivered(server::RequestPtr request);

    /** @name Observers
     * @{
     */
    const SampleCollector &collector() const { return samples; }
    bool done() const { return samples.done(); }
    std::size_t outstanding() const { return outstandingCount; }
    std::uint64_t issued() const { return issuedCounter.value(); }
    std::uint64_t received() const { return receivedCounter.value(); }
    /** Attempts that hit their timeout. */
    std::uint64_t timeouts() const { return timeoutsCounter.value(); }
    /** Extra wire attempts sent by the retry policy. */
    std::uint64_t retries() const { return retriesCounter.value(); }
    /** Backup requests sent by the hedging policy. */
    std::uint64_t hedges() const { return hedgesCounter.value(); }
    /** Logical requests whose hedge answered first. */
    std::uint64_t hedgeWins() const { return hedgeWinsCounter.value(); }
    /** Logical requests abandoned after exhausting retries. */
    std::uint64_t failed() const { return failedCounter.value(); }
    /** Responses that arrived after their logical request completed,
     *  failed, or the measurement window closed. */
    std::uint64_t lateResponses() const { return lateCounter.value(); }
    /** Outstanding-request count observed at each send instant
     *  (the Fig 1 distribution). */
    const std::vector<std::uint64_t> &outstandingAtSend() const
    {
        return outstandingSamples;
    }
    /** Busy fraction of the client CPU. */
    double cpuUtilization() const;
    /** Slabs the request arena carved so far (pool-occupancy probe). */
    std::size_t requestPoolSlabs() const
    {
        return requestPool.slabCount();
    }
    const ClientParams &params() const { return cfg; }
    /** @} */

    /**
     * Install a hook invoked after each response has been fully
     * processed and sampled (used by the experiment harness for
     * latency decomposition and stop conditions).
     */
    void setCompletionHook(
        std::function<void(const server::RequestPtr &)> hook)
    {
        completionHook = std::move(hook);
    }

    /**
     * Install the consumer of completed spans (typically
     * obs::SpanRecorder::record via the harness). Only invoked when
     * ClientParams::recordSpans is set; the SpanView argument views
     * scratch storage reused across calls -- copy it if retained.
     */
    void setSpanSink(std::function<void(const obs::SpanView &)> sink)
    {
        spanSink = std::move(sink);
    }

  private:
    /** Per-logical-request resilience state, keyed by logicalSeqId. */
    struct PendingState {
        server::Request proto;    ///< Template for retry/hedge clones.
        unsigned retriesLeft = 0;
        std::uint32_t attemptsSent = 1;
        bool hedgeSent = false;
        /** Retries are exhausted but a hedge attempt is still in
         *  flight; one final timeout window runs before the logical
         *  request is declared failed. */
        bool awaitingHedge = false;
        sim::EventId timeoutEvent = 0;
        sim::EventId hedgeEvent = 0;
        sim::EventId retryEvent = 0; ///< Backoff-delayed retry send.
        /** @name Attempt retention (recordSpans only)
         * Every wire attempt is held alive until the logical request
         * completes so its stamps survive into the span (losing
         * attempts keep partial timelines). The pool recycles them
         * when the entry is erased. Empty when recordSpans is off.
         * @{ */
        std::array<server::RequestPtr, obs::kMaxSpanAttempts> held;
        std::uint32_t heldCount = 0;
        /** Index (into held) of the newest non-hedged attempt -- the
         *  one whose timeout fires next. */
        std::uint32_t lastPrimaryHeld = 0;
        /** @} */
    };

    /** Controller callback: build and send one request. */
    void issueRequest(SimTime intendedSend);

    /** Occupy the client CPU, then transmit @p request. */
    void transmitAttempt(server::RequestPtr request);

    /** Arm the timeout (and, for first attempts, the hedge timer). */
    void armAttempt(const server::RequestPtr &request);

    /** An attempt of @p logicalId hit its timeout. */
    void onTimeout(std::uint64_t logicalId);

    /** The backoff delay of @p logicalId elapsed: send the retry. */
    void onRetryTimer(std::uint64_t logicalId);

    /** The hedge timer of @p logicalId fired unanswered. */
    void onHedgeTimer(std::uint64_t logicalId);

    /** Clone the prototype of @p state into a new wire attempt. */
    server::RequestPtr cloneAttempt(PendingState &state, bool hedged);

    /**
     * Build the span of a completed logical request into spanScratch
     * and loserScratch and hand it to the sink. @p state may be null
     * (resilience disabled: the single @p winner attempt is the whole
     * span).
     */
    void recordSpan(const PendingState *state,
                    const server::RequestPtr &winner);

    sim::Simulation &sim;
    ClientParams cfg;
    WorkloadGenerator workload;
    /** Recycles Request blocks across the instance's lifetime; issue
     *  and clone paths allocate nothing once the arena is warm. */
    server::RequestPool requestPool;
    TransmitFn transmit;
    std::unique_ptr<LoadController> controller;
    SampleCollector samples;
    Rng rng;
    Rng resilienceRng; ///< Backoff jitter; untouched when disabled.

    SimTime cpuFreeAt = 0;
    SimDuration cpuBusy = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t nextConnection = 0;
    std::size_t outstandingCount = 0;
    std::vector<std::uint64_t> outstandingSamples;
    std::function<void(const server::RequestPtr &)> completionHook;
    std::function<void(const obs::SpanView &)> spanSink;
    /** Reused span buffers: recordSpan fills them in place, so span
     *  emission allocates nothing on the hot path. */
    obs::SpanTrace spanScratch;
    std::array<obs::AttemptSpan, obs::kMaxSpanAttempts - 1> loserScratch;
    /** Logical requests awaiting their first response (resilience
     *  enabled only; empty and untouched otherwise). A PendingState
     *  pointer is dropped before anything can insert or erase an
     *  entry: a closed loop issues (inserts) from onResponse(). */
    util::FlatU64Map<PendingState> pending;

    /** @name Registry handles ("client<i>.*", resolved once)
     * @{
     */
    obs::Counter &issuedCounter;
    obs::Counter &receivedCounter;
    obs::Counter &timeoutsCounter;
    obs::Counter &retriesCounter;
    obs::Counter &hedgesCounter;
    obs::Counter &hedgeWinsCounter;
    obs::Counter &failedCounter;
    obs::Counter &lateCounter;
    obs::Histogram &sendSlipHist;     ///< intendedSend -> clientSend, us.
    obs::Histogram &outstandingHist;  ///< Outstanding at each send.
    obs::Gauge &outstandingGauge;
    /** @} */
};

} // namespace core
} // namespace treadmill

#endif // TREADMILL_CORE_CLIENT_H_
