/** @file Client resilience-policy tests: timeout, retry with backoff,
 *  hedging, failure accounting, and the open-loop latency discipline
 *  (latency spans from the original intended send across retries). */

#include "core/client.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulation.h"
#include "util/error.h"

namespace treadmill {
namespace core {
namespace {

ClientParams
slowSteadyParams()
{
    ClientParams p;
    p.requestsPerSecond = 1000.0; // no client-side queueing
    p.collector.warmUpSamples = 0;
    p.collector.calibrationSamples = 10;
    p.collector.measurementSamples = 60;
    return p;
}

/**
 * Echo harness with a programmable per-attempt policy: decide for each
 * wire attempt whether (and after what delay) to answer.
 */
class SelectiveEcho
{
  public:
    using Policy =
        std::function<bool(const server::RequestPtr &, SimDuration &)>;

    SelectiveEcho(sim::Simulation &sim, Policy policy)
        : sim(sim), policy(std::move(policy))
    {
    }

    LoadTesterInstance::TransmitFn
    transmitTo(LoadTesterInstance *&slot)
    {
        return [this, &slot](server::RequestPtr req) {
            sent.push_back(req);
            SimDuration delay = 0;
            if (!policy(req, delay))
                return; // dropped on the (virtual) wire
            sim.schedule(delay, [this, req, &slot] {
                req->nicArrival = sim.now();
                req->nicDeparture = sim.now();
                req->clientNicArrival = sim.now();
                slot->onResponseDelivered(req);
            });
        };
    }

    std::vector<server::RequestPtr> sent;

  private:
    sim::Simulation &sim;
    Policy policy;
};

TEST(ResilienceTest, RetryMeasuresFromOriginalIntendedSend)
{
    sim::Simulation sim;
    // Drop every first attempt; answer retries after 20 us.
    SelectiveEcho echo(sim,
                       [](const server::RequestPtr &req,
                          SimDuration &delay) {
                           delay = microseconds(20);
                           return req->attempt > 0;
                       });
    auto params = slowSteadyParams();
    params.resilience.enabled = true;
    params.resilience.timeoutUs = 1000.0;
    params.resilience.maxRetries = 2;
    params.resilience.backoffBaseUs = 100.0;
    params.resilience.jitterFraction = 0.0;

    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(200));

    EXPECT_GT(inst.timeouts(), 0u);
    EXPECT_GT(inst.retries(), 0u);
    EXPECT_GT(inst.received(), 0u);
    EXPECT_EQ(inst.failed(), 0u);

    // The recorded latency must span the dropped first attempt: the
    // timeout (1000 us) plus backoff (100 us) plus the echo path. A
    // policy that restarted the clock at the retry would report ~52 us.
    EXPECT_GT(inst.collector().quantile(0.5), 1000.0);
    EXPECT_LT(inst.collector().quantile(0.5), 2000.0);

    // Wire attempts: retries share the logical id, get a new seq id.
    bool sawRetry = false;
    for (const auto &req : echo.sent) {
        if (req->attempt == 0)
            continue;
        sawRetry = true;
        EXPECT_NE(req->seqId, req->logicalSeqId);
        EXPECT_FALSE(req->hedged);
    }
    EXPECT_TRUE(sawRetry);
}

TEST(ResilienceTest, HedgeWinsCutTheTailAndCountLateOriginals)
{
    sim::Simulation sim;
    // Originals are pathologically slow; hedges answer fast.
    SelectiveEcho echo(sim,
                       [](const server::RequestPtr &req,
                          SimDuration &delay) {
                           delay = req->hedged ? microseconds(20)
                                               : milliseconds(5);
                           return true;
                       });
    auto params = slowSteadyParams();
    params.resilience.enabled = true;
    params.resilience.timeoutUs = 20000.0;
    params.resilience.hedge = true;
    params.resilience.hedgeDelayUs = 300.0;

    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(200));

    EXPECT_GT(inst.hedges(), 0u);
    EXPECT_GT(inst.hedgeWins(), 0u);
    // The slow originals eventually arrive and must be counted as
    // late duplicates, not recorded twice.
    EXPECT_GT(inst.lateResponses(), 0u);
    EXPECT_EQ(inst.timeouts(), 0u);

    // Hedge at 300 us + fast echo ~52 us beats the 5 ms original.
    EXPECT_GT(inst.collector().quantile(0.5), 300.0);
    EXPECT_LT(inst.collector().quantile(0.5), 1000.0);
}

TEST(ResilienceTest, ExhaustedRetriesBecomeFailuresNotSamples)
{
    sim::Simulation sim;
    // A black hole: nothing is ever answered.
    SelectiveEcho echo(sim, [](const server::RequestPtr &,
                               SimDuration &) { return false; });
    auto params = slowSteadyParams();
    params.resilience.enabled = true;
    params.resilience.timeoutUs = 200.0;
    params.resilience.maxRetries = 1;
    params.resilience.jitterFraction = 0.0;

    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(20));
    inst.stopLoad();
    sim.runUntil(milliseconds(40));

    EXPECT_GT(inst.failed(), 0u);
    EXPECT_EQ(inst.failed(), inst.issued());
    EXPECT_EQ(inst.received(), 0u);
    // Two attempts per logical request, both timed out.
    EXPECT_EQ(inst.timeouts(), 2 * inst.failed());
    EXPECT_EQ(inst.retries(), inst.failed());
    // Abandoned requests release their outstanding slot...
    EXPECT_EQ(inst.outstanding(), 0u);
    // ...and contribute no fabricated latency sample.
    EXPECT_EQ(inst.collector().measured(), 0u);
}

TEST(ResilienceTest, LateResponsesAfterMeasurementWindowCounted)
{
    sim::Simulation sim;
    // Plain echo with enough in-flight at completion time.
    SelectiveEcho echo(sim, [](const server::RequestPtr &,
                               SimDuration &delay) {
        delay = microseconds(500);
        return true;
    });
    auto params = slowSteadyParams();
    params.requestsPerSecond = 100000.0; // ~50 outstanding at done
    params.collector.measurementSamples = 200;

    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(50));

    ASSERT_TRUE(inst.done());
    // Responses that arrived after the collector closed are visible
    // as late, not silently swallowed.
    EXPECT_GT(inst.lateResponses(), 0u);
    EXPECT_EQ(inst.collector().measured(), 200u);
}

TEST(ResilienceTest, DisabledPolicyKeepsCountersAtZero)
{
    sim::Simulation sim;
    SelectiveEcho echo(sim, [](const server::RequestPtr &,
                               SimDuration &delay) {
        delay = microseconds(20);
        return true;
    });
    auto params = slowSteadyParams();
    params.requestsPerSecond = 100000.0;

    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(50));

    EXPECT_GT(inst.received(), 0u);
    EXPECT_EQ(inst.timeouts(), 0u);
    EXPECT_EQ(inst.retries(), 0u);
    EXPECT_EQ(inst.hedges(), 0u);
    EXPECT_EQ(inst.hedgeWins(), 0u);
    EXPECT_EQ(inst.failed(), 0u);
}

TEST(ResilienceTest, CompletedRequestCancelsPendingBackoffRetry)
{
    sim::Simulation sim;
    // Primaries vanish; hedges answer. With a long backoff, the hedge
    // response lands while the retry is still waiting out its delay --
    // the regression is a zombie retry transmitted after completion.
    SelectiveEcho echo(sim,
                       [](const server::RequestPtr &req,
                          SimDuration &delay) {
                           delay = microseconds(300);
                           return req->hedged;
                       });
    auto params = slowSteadyParams();
    params.resilience.enabled = true;
    params.resilience.timeoutUs = 500.0;
    params.resilience.maxRetries = 3;
    params.resilience.backoffBaseUs = 5000.0;
    params.resilience.jitterFraction = 0.0;
    params.resilience.hedge = true;
    params.resilience.hedgeDelayUs = 300.0;

    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(200));
    inst.stopLoad();
    sim.runUntil(milliseconds(300));

    EXPECT_GT(inst.hedgeWins(), 0u);
    EXPECT_EQ(inst.failed(), 0u);
    EXPECT_EQ(inst.received(), inst.issued());
    // Every logical request completes via its hedge before the retry
    // backoff elapses, so no retry may ever reach the wire...
    EXPECT_EQ(inst.retries(), 0u);
    // ...and each logical id puts exactly two attempts on the wire:
    // the primary and the hedge. A third is the zombie.
    std::unordered_map<std::uint64_t, unsigned> attempts;
    for (const auto &req : echo.sent)
        ++attempts[req->logicalSeqId];
    for (const auto &entry : attempts)
        EXPECT_EQ(entry.second, 2u) << "logical " << entry.first;
}

TEST(ResilienceTest, HedgeInFlightOutlivesExhaustedRetries)
{
    sim::Simulation sim;
    // No retries at all; the hedge is the only second chance, and it
    // answers after the primary's timeout has already fired.
    SelectiveEcho echo(sim,
                       [](const server::RequestPtr &req,
                          SimDuration &delay) {
                           delay = microseconds(400);
                           return req->hedged;
                       });
    auto params = slowSteadyParams();
    params.resilience.enabled = true;
    params.resilience.timeoutUs = 500.0;
    params.resilience.maxRetries = 0;
    params.resilience.hedge = true;
    params.resilience.hedgeDelayUs = 300.0;

    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(200));
    inst.stopLoad();
    sim.runUntil(milliseconds(300));

    // The hedge answer (in flight when retries ran out) completes the
    // request; declaring failure there loses a delivered response.
    EXPECT_EQ(inst.failed(), 0u);
    EXPECT_EQ(inst.received(), inst.issued());
    EXPECT_GT(inst.hedgeWins(), 0u);
}

TEST(ResilienceTest, HedgeGraceWindowStillFailsBlackHoles)
{
    sim::Simulation sim;
    // Nothing answers, hedges included: the grace window for an
    // in-flight hedge must expire into a failure, not wait forever.
    SelectiveEcho echo(sim, [](const server::RequestPtr &,
                               SimDuration &) { return false; });
    auto params = slowSteadyParams();
    params.resilience.enabled = true;
    params.resilience.timeoutUs = 500.0;
    params.resilience.maxRetries = 0;
    params.resilience.hedge = true;
    params.resilience.hedgeDelayUs = 300.0;

    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(20));
    inst.stopLoad();
    sim.runUntil(milliseconds(60));

    EXPECT_GT(inst.failed(), 0u);
    EXPECT_EQ(inst.failed(), inst.issued());
    EXPECT_EQ(inst.received(), 0u);
    EXPECT_EQ(inst.outstanding(), 0u);
    // One ordinary timeout plus one grace-window expiry per request.
    EXPECT_EQ(inst.timeouts(), 2 * inst.failed());
}

TEST(ResilienceTest, RejectsInconsistentPolicies)
{
    sim::Simulation sim;
    const auto noopTransmit = [](server::RequestPtr) {};

    auto params = slowSteadyParams();
    params.resilience.enabled = true;
    params.resilience.maxRetries = 2;
    params.resilience.timeoutUs = 0.0; // retries need a timeout
    EXPECT_THROW(LoadTesterInstance(sim, params, WorkloadConfig{},
                                    noopTransmit),
                 ConfigError);

    params = slowSteadyParams();
    params.resilience.enabled = true;
    params.resilience.timeoutUs = 1000.0;
    params.resilience.jitterFraction = 1.5;
    EXPECT_THROW(LoadTesterInstance(sim, params, WorkloadConfig{},
                                    noopTransmit),
                 ConfigError);

    // Hedging needs a fixed, positive delay; a zero one would fire
    // the hedge at send time and double the offered load.
    params = slowSteadyParams();
    params.resilience.enabled = true;
    params.resilience.hedge = true;
    params.resilience.hedgeDelayUs = 0.0;
    try {
        LoadTesterInstance(sim, params, WorkloadConfig{}, noopTransmit);
        ADD_FAILURE() << "a zero hedge delay was accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("hedgeDelayUs"),
                  std::string::npos)
            << e.what();
    }

    params = slowSteadyParams();
    params.resilience.enabled = true;
    params.resilience.hedge = true;
    params.resilience.hedgeDelayUs = -5.0;
    EXPECT_THROW(LoadTesterInstance(sim, params, WorkloadConfig{},
                                    noopTransmit),
                 ConfigError);
}

} // namespace
} // namespace core
} // namespace treadmill
