/** @file Fault-injection behaviour: the server shim's stall / crash /
 *  warm-up semantics, the injector's scheduling, and end-to-end
 *  experiments under each fault class. */

#include "fault/injector.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.h"
#include "obs/span.h"
#include "server/fault_shim.h"
#include "sim/simulation.h"
#include "util/error.h"

namespace treadmill {
namespace fault {
namespace {

/** Registry counter @p name of @p sim. */
std::uint64_t
countOf(sim::Simulation &sim, const std::string &name)
{
    return sim.metrics().counter(name).value();
}

/** Inner service that records delivery instants and echoes back. */
class RecordingService : public server::Service
{
  public:
    explicit RecordingService(sim::Simulation &sim) : sim(sim) {}

    void receive(server::Request *request) override
    {
        deliveredAt.push_back(sim.now());
        answer(request);
    }

    std::vector<SimTime> deliveredAt;

  private:
    sim::Simulation &sim;
};

TEST(FaultShimTest, StallDefersIntakeUntilTheWindowEnds)
{
    sim::Simulation sim;
    RecordingService inner(sim);
    server::ServiceFaultShim shim(sim, inner);
    server::RequestPool pool;

    shim.beginStall(microseconds(100));
    std::uint64_t responses = 0;
    shim.setSink([&](server::Request *) { ++responses; });
    sim.schedule(microseconds(10), [&] {
        EXPECT_TRUE(shim.stalled());
        shim.receive(pool.make());
    });
    sim.runUntil(milliseconds(1));

    ASSERT_EQ(inner.deliveredAt.size(), 1u);
    EXPECT_EQ(inner.deliveredAt[0], microseconds(100));
    EXPECT_EQ(countOf(sim, "server.fault.stalled"), 1u);
    EXPECT_EQ(responses, 1u);
    EXPECT_FALSE(shim.stalled());
}

TEST(FaultShimTest, CrashDropsRequestsUntilRestart)
{
    sim::Simulation sim;
    RecordingService inner(sim);
    server::ServiceFaultShim shim(sim, inner);
    server::RequestPool pool;

    shim.beginCrash(microseconds(100), 0, 0);
    std::uint64_t responses = 0;
    shim.setSink([&](server::Request *) { ++responses; });
    sim.schedule(microseconds(50), [&] { shim.receive(pool.make()); });
    sim.schedule(microseconds(150), [&] { shim.receive(pool.make()); });
    sim.runUntil(milliseconds(1));

    // The mid-crash request is silently dropped, never answered.
    ASSERT_EQ(inner.deliveredAt.size(), 1u);
    EXPECT_EQ(inner.deliveredAt[0], microseconds(150));
    EXPECT_EQ(countOf(sim, "server.fault.dropped"), 1u);
    EXPECT_EQ(responses, 1u);
}

TEST(FaultShimTest, WarmupPenaltyDecaysLinearly)
{
    sim::Simulation sim;
    RecordingService inner(sim);
    server::ServiceFaultShim shim(sim, inner);
    server::RequestPool pool;

    // Restart at 100 us; 80 us penalty decaying over a 100 us window.
    shim.beginCrash(microseconds(100), microseconds(100),
                    microseconds(80));
    shim.setSink([](server::Request *) {});
    sim.schedule(microseconds(100), [&] { shim.receive(pool.make()); });
    sim.schedule(microseconds(150), [&] { shim.receive(pool.make()); });
    sim.schedule(microseconds(250), [&] { shim.receive(pool.make()); });
    sim.runUntil(milliseconds(1));

    ASSERT_EQ(inner.deliveredAt.size(), 3u);
    // Full penalty at the restart instant, half midway, none after.
    EXPECT_EQ(inner.deliveredAt[0], microseconds(180));
    EXPECT_EQ(inner.deliveredAt[1], microseconds(190));
    EXPECT_EQ(inner.deliveredAt[2], microseconds(250));
    EXPECT_EQ(countOf(sim, "server.fault.warmed_up"), 2u);
}

TEST(FaultInjectorTest, ExpandsRepeatsIntoAnnotatedWindows)
{
    sim::Simulation sim;
    RecordingService inner(sim);
    server::ServiceFaultShim shim(sim, inner);

    FaultPlan plan;
    FaultEvent ev;
    ev.kind = FaultKind::ServerStall;
    ev.start = milliseconds(1);
    ev.duration = microseconds(200);
    ev.period = milliseconds(2);
    ev.repeatCount = 3;
    plan.events.push_back(ev);

    FaultInjector injector(sim, plan, 7);
    injector.attachShim(shim);
    injector.arm();

    ASSERT_EQ(injector.annotations().size(), 3u);
    EXPECT_EQ(injector.annotations()[0].start, milliseconds(1));
    EXPECT_EQ(injector.annotations()[0].end,
              milliseconds(1) + microseconds(200));
    EXPECT_EQ(injector.annotations()[2].start, milliseconds(5));
    EXPECT_NE(injector.annotations()[0].name.find("server_stall"),
              std::string::npos);

    EXPECT_EQ(countOf(sim, "fault.windows_applied"), 0u);
    sim.runUntil(milliseconds(10));
    EXPECT_EQ(countOf(sim, "fault.windows_applied"), 3u);
}

TEST(FaultInjectorTest, ServerEventWithoutShimThrows)
{
    sim::Simulation sim;
    FaultPlan plan;
    FaultEvent ev;
    ev.kind = FaultKind::ServerStall;
    ev.duration = milliseconds(1);
    plan.events.push_back(ev);

    FaultInjector injector(sim, plan, 1);
    EXPECT_THROW(injector.arm(), ConfigError);
}

// ---------------------------------------------------------------------
// End-to-end experiments under each fault class.

core::ExperimentParams
smallParams()
{
    core::ExperimentParams params;
    params.collector.warmUpSamples = 100;
    params.collector.calibrationSamples = 100;
    params.collector.measurementSamples = 1500;
    params.seed = 3;
    return params;
}

/** One periodic stall covering the whole (short) run. */
FaultPlan
stallPlan()
{
    FaultPlan plan;
    FaultEvent ev;
    ev.kind = FaultKind::ServerStall;
    ev.start = milliseconds(5);
    ev.duration = milliseconds(2);
    ev.period = milliseconds(15);
    ev.repeatCount = 30;
    plan.events.push_back(ev);
    return plan;
}

std::int64_t
counterValue(const core::ExperimentResult &result, const char *name)
{
    const json::Value &counters = result.metrics.at("counters");
    return counters.contains(name) ? counters.at(name).asInt() : 0;
}

TEST(FaultExperimentTest, EmptyPlanWiresNoFaultMachinery)
{
    const auto result = core::runExperiment(smallParams());
    EXPECT_TRUE(result.faultWindows.empty());
    // The injector and shim were never constructed, so their metrics
    // never registered.
    EXPECT_FALSE(
        result.metrics.at("counters").contains("fault.windows_applied"));
    EXPECT_FALSE(
        result.metrics.at("counters").contains("server.fault.stalled"));
}

TEST(FaultExperimentTest, StallRaisesTailAndIsAnnotated)
{
    const auto baseline = core::runExperiment(smallParams());

    auto params = smallParams();
    params.faultPlan = stallPlan();
    const auto faulted = core::runExperiment(params);

    EXPECT_GT(counterValue(faulted, "server.fault.stalled"), 0);
    EXPECT_GT(counterValue(faulted, "fault.windows_applied"), 0);
    ASSERT_FALSE(faulted.faultWindows.empty());
    EXPECT_NE(faulted.faultWindows[0].name.find("server_stall"),
              std::string::npos);

    // A 2 ms freeze dwarfs the healthy sub-millisecond tail.
    const double p99Base = baseline.aggregatedQuantile(
        0.99, core::AggregationKind::PerInstance);
    const double p99Fault = faulted.aggregatedQuantile(
        0.99, core::AggregationKind::PerInstance);
    EXPECT_GT(p99Fault, p99Base + 500.0);
}

TEST(FaultExperimentTest, LinkLossIsRetriedAndAccounted)
{
    auto params = smallParams();
    FaultEvent ev;
    ev.kind = FaultKind::LinkLoss;
    ev.target = "client0-uplink";
    ev.start = milliseconds(2);
    ev.duration = milliseconds(20);
    ev.lossProbability = 0.5;
    params.faultPlan.events.push_back(ev);
    params.resilience.enabled = true;
    params.resilience.timeoutUs = 3000.0;
    params.resilience.maxRetries = 3;
    const auto result = core::runExperiment(params);

    EXPECT_GT(counterValue(result, "net.client0-uplink.dropped"), 0);
    EXPECT_GT(counterValue(result, "client0.timeouts"), 0);
    EXPECT_GT(counterValue(result, "client0.retries"), 0);
    // The full resilience counter family lives in the snapshot even
    // when a policy leg never fired.
    for (const char *name :
         {"client0.hedges", "client0.hedge_wins", "client0.failed",
          "client0.late_responses"})
        EXPECT_TRUE(result.metrics.at("counters").contains(name))
            << name;
    // Only client0's uplink is lossy.
    EXPECT_EQ(counterValue(result, "net.client1-uplink.dropped"), 0);
    EXPECT_EQ(counterValue(result, "client1.retries"), 0);
    // Retries recovered the drops: the run still completes.
    EXPECT_FALSE(result.deadlineHit);
    EXPECT_EQ(result.instancesAtTarget(), result.instances.size());
}

TEST(FaultExperimentTest, CrashDropsAreRecoveredByRetries)
{
    auto params = smallParams();
    FaultEvent ev;
    ev.kind = FaultKind::ServerCrash;
    ev.start = milliseconds(5);
    ev.duration = milliseconds(5);
    ev.warmup = milliseconds(5);
    ev.warmupPenalty = microseconds(300);
    params.faultPlan.events.push_back(ev);
    params.resilience.enabled = true;
    params.resilience.timeoutUs = 4000.0;
    params.resilience.maxRetries = 5;
    const auto result = core::runExperiment(params);

    EXPECT_GT(counterValue(result, "server.fault.dropped"), 0);
    EXPECT_GT(counterValue(result, "server.fault.warmed_up"), 0);
    std::int64_t retries = 0;
    for (std::size_t i = 0; i < result.instances.size(); ++i)
        retries += counterValue(
            result, ("client" + std::to_string(i) + ".retries").c_str());
    EXPECT_GT(retries, 0);
    EXPECT_FALSE(result.deadlineHit);
    EXPECT_EQ(result.instancesAtTarget(), result.instances.size());
}

TEST(FaultExperimentTest, InterruptStormSlowsEveryRequest)
{
    const auto baseline = core::runExperiment(smallParams());

    auto params = smallParams();
    FaultEvent ev;
    ev.kind = FaultKind::NicInterruptStorm;
    ev.start = 0;
    ev.duration = seconds(10); // covers the whole run
    ev.irqCostFactor = 50.0;
    params.faultPlan.events.push_back(ev);
    const auto faulted = core::runExperiment(params);

    // 50x the ~1 us interrupt cost is a visible shift even at P50.
    const double p50Base = baseline.aggregatedQuantile(
        0.5, core::AggregationKind::PerInstance);
    const double p50Fault = faulted.aggregatedQuantile(
        0.5, core::AggregationKind::PerInstance);
    EXPECT_GT(p50Fault, p50Base + 10.0);
}

TEST(FaultExperimentTest, UnmatchedLinkTargetThrows)
{
    auto params = smallParams();
    FaultEvent ev;
    ev.kind = FaultKind::LinkLoss;
    ev.target = "no-such-link";
    ev.duration = milliseconds(1);
    ev.lossProbability = 0.1;
    params.faultPlan.events.push_back(ev);
    EXPECT_THROW(core::runExperiment(params), ConfigError);
}

TEST(FaultExperimentTest, FaultWindowsOverlayOnChromeTrace)
{
    auto params = smallParams();
    params.faultPlan = stallPlan();
    params.trace.enabled = true;
    params.trace.sampleEvery = 16;
    const auto result = core::runExperiment(params);

    ASSERT_FALSE(result.spans.empty());
    ASSERT_FALSE(result.faultWindows.empty());
    const std::string json =
        obs::chromeSpanJson(result.spans, result.faultWindows);
    EXPECT_NE(json.find("\"faults\""), std::string::npos);
    EXPECT_NE(json.find("server_stall"), std::string::npos);
}

core::ExperimentParams
smallClusterParams()
{
    auto params = smallParams();
    params.kind = core::WorkloadKind::Mcrouter;
    params.cluster.backends = 4;
    return params;
}

TEST(FaultExperimentTest, BackendStallHitsOnlyTheTargetedShard)
{
    auto params = smallClusterParams();
    FaultEvent ev;
    ev.kind = FaultKind::ServerStall;
    ev.backend = 1;
    ev.start = milliseconds(5);
    ev.duration = milliseconds(2);
    ev.period = milliseconds(15);
    ev.repeatCount = 30;
    params.faultPlan.events.push_back(ev);
    const auto result = core::runExperiment(params);

    // Only shard 1's shim stalls; its siblings and the front router
    // stay clean -- the per-backend metric scopes keep them apart.
    EXPECT_GT(counterValue(result, "backend1.fault.stalled"), 0);
    EXPECT_EQ(counterValue(result, "backend0.fault.stalled"), 0);
    EXPECT_EQ(counterValue(result, "backend2.fault.stalled"), 0);
    EXPECT_EQ(counterValue(result, "server.fault.stalled"), 0);
    ASSERT_FALSE(result.faultWindows.empty());
    EXPECT_NE(result.faultWindows[0].name.find("[backend1]"),
              std::string::npos);
}

TEST(FaultExperimentTest, BackendTargetOutOfRangeIsRejected)
{
    auto params = smallClusterParams();
    FaultEvent ev;
    ev.kind = FaultKind::ServerStall;
    ev.backend = 7; // only 4 shards exist
    ev.start = milliseconds(5);
    ev.duration = milliseconds(1);
    params.faultPlan.events.push_back(ev);
    EXPECT_THROW(core::runExperiment(params), ConfigError);
}

} // namespace
} // namespace fault
} // namespace treadmill
