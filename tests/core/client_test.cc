/** @file Unit tests for the load-tester instance / client model. */

#include "core/client.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.h"

namespace treadmill {
namespace core {
namespace {

/** Client 0's registry counter "client0.<name>" in @p sim. */
std::uint64_t
clientCount(sim::Simulation &sim, const std::string &name)
{
    return sim.metrics().counter("client0." + name).value();
}

ClientParams
fastParams()
{
    ClientParams p;
    p.requestsPerSecond = 100000.0;
    p.collector.warmUpSamples = 0;
    p.collector.calibrationSamples = 50;
    p.collector.measurementSamples = 200;
    return p;
}

/** Echo "server": responds after a fixed delay. */
class EchoHarness
{
  public:
    EchoHarness(sim::Simulation &sim, SimDuration delay)
        : sim(sim), delay(delay)
    {
    }

    LoadTesterInstance::TransmitFn
    transmitTo(LoadTesterInstance *&slot)
    {
        return [this, &slot](server::Request *req) {
            sent.push_back(*req);
            sim.schedule(delay, [this, req, &slot] {
                req->nicArrival = sim.now();
                req->nicDeparture = sim.now();
                req->clientNicArrival = sim.now();
                slot->onResponseDelivered(req);
            });
        };
    }

    /** A copy of each attempt as it left the client. */
    std::vector<server::Request> sent;

  private:
    sim::Simulation &sim;
    SimDuration delay;
};

TEST(ClientTest, IssuesAndMeasures)
{
    sim::Simulation sim;
    EchoHarness echo(sim, microseconds(20));
    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, fastParams(), WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(50));
    EXPECT_TRUE(inst.done());
    EXPECT_GE(clientCount(sim, "received"), 250u);
    EXPECT_EQ(inst.collector().measured(), 200u);
}

TEST(ClientTest, LatencyIncludesKernelDelayAndCosts)
{
    sim::Simulation sim;
    EchoHarness echo(sim, microseconds(20));
    auto params = fastParams();
    params.requestsPerSecond = 1000.0; // no client queueing
    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(300));
    // Echo 20 us + send 1 + kernel 30 + receive 1.2 = 52.2 us.
    EXPECT_NEAR(inst.collector().quantile(0.5), 52.2, 1.0);
}

TEST(ClientTest, OutstandingTrackedAtSendInstants)
{
    sim::Simulation sim;
    EchoHarness echo(sim, microseconds(500)); // slow server
    auto params = fastParams();
    params.requestsPerSecond = 50000.0;
    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(20));
    const auto &samples = inst.outstandingAtSend();
    ASSERT_FALSE(samples.empty());
    // 50k RPS x 500 us ~= 25 outstanding in steady state; open loop
    // must routinely exceed any small closed-loop cap.
    std::uint64_t maxSeen = 0;
    for (auto v : samples)
        maxSeen = std::max(maxSeen, v);
    EXPECT_GT(maxSeen, 12u);
}

TEST(ClientTest, ClosedLoopNeverExceedsSlots)
{
    sim::Simulation sim;
    EchoHarness echo(sim, microseconds(500));
    auto params = fastParams();
    params.loop = ControlLoop::ClosedLoop;
    params.closedLoopSlots = 6;
    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(50));
    for (auto v : inst.outstandingAtSend())
        EXPECT_LT(v, 6u);
}

TEST(ClientTest, CpuSaturationDelaysTransmission)
{
    // Issue far beyond the client CPU's capacity: transmissions fall
    // behind their intended instants (client-side queueing bias).
    sim::Simulation sim;
    EchoHarness echo(sim, microseconds(10));
    auto params = fastParams();
    params.requestsPerSecond = 2e6; // 2M RPS x 1 us send = 2x overload
    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(5));
    ASSERT_GT(echo.sent.size(), 100u);
    const auto &last = echo.sent.back();
    EXPECT_GT(last.clientSend, last.intendedSend + microseconds(100));
    EXPECT_GT(inst.cpuUtilization(), 0.9);
}

TEST(ClientTest, ConnectionsRotateRoundRobin)
{
    sim::Simulation sim;
    EchoHarness echo(sim, microseconds(5));
    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, fastParams(), WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(2));
    constexpr std::size_t n = LoadTesterInstance::kConnections;
    ASSERT_GE(echo.sent.size(), 2 * n);
    for (std::size_t i = 1; i < n; ++i)
        EXPECT_NE(echo.sent[i].connectionId, echo.sent[0].connectionId);
    for (std::size_t i = n; i < 2 * n; ++i)
        EXPECT_EQ(echo.sent[i].connectionId,
                  echo.sent[i - n].connectionId);
}

TEST(ClientTest, SequenceIdsEncodeInstance)
{
    sim::Simulation sim;
    EchoHarness echo(sim, microseconds(5));
    auto params = fastParams();
    params.index = 3;
    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(1));
    ASSERT_FALSE(echo.sent.empty());
    EXPECT_EQ(echo.sent.front().seqId >> 40, 3u);
    EXPECT_EQ(echo.sent.front().clientIndex, 3u);
}

TEST(ClientTest, CompletionHookFires)
{
    sim::Simulation sim;
    EchoHarness echo(sim, microseconds(5));
    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, fastParams(), WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    std::uint64_t hooks = 0;
    inst.setCompletionHook(
        [&](const server::Request &) { ++hooks; });
    inst.start();
    sim.runUntil(milliseconds(10));
    EXPECT_EQ(hooks, clientCount(sim, "received"));
    EXPECT_GT(hooks, 0u);
}

TEST(ClientTest, StopLoadHaltsIssuing)
{
    sim::Simulation sim;
    EchoHarness echo(sim, microseconds(5));
    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, fastParams(), WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(2));
    inst.stopLoad();
    const auto issuedAtStop = clientCount(sim, "issued");
    sim.runUntil(milliseconds(10));
    EXPECT_EQ(clientCount(sim, "issued"), issuedAtStop);
}

TEST(ClientTest, CountersAreTheObserversAndOneInstanceOwnsItsScope)
{
    sim::Simulation sim;
    EchoHarness echo(sim, microseconds(20));
    auto params = fastParams();
    params.index = 3;
    LoadTesterInstance *slot = nullptr;
    LoadTesterInstance inst(sim, params, WorkloadConfig{},
                            echo.transmitTo(slot));
    slot = &inst;
    inst.start();
    sim.runUntil(milliseconds(5));
    // Instance 3 counts under "client3.", the only place its counts
    // are read from.
    const std::uint64_t issued =
        sim.metrics().counter("client3.issued").value();
    EXPECT_GT(issued, 0u);
    EXPECT_GT(sim.metrics().counter("client3.received").value(), 0u);
    EXPECT_LE(sim.metrics().counter("client3.received").value(), issued);

    // A second instance with the same index would add into the same
    // counters: its construction fails instead.
    EXPECT_THROW(LoadTesterInstance(sim, params, WorkloadConfig{},
                                    [](server::Request *) {}),
                 ConfigError);
    params.index = 4;
    EXPECT_NO_THROW(LoadTesterInstance(sim, params, WorkloadConfig{},
                                       [](server::Request *) {}));
}

} // namespace
} // namespace core
} // namespace treadmill
