/** @file Unit tests for declarative fault plans: JSON round-trips,
 *  defaults, and validation (mirrors workload_test.cc). */

#include "fault/plan.h"

#include <gtest/gtest.h>

#include <string>

#include "util/error.h"
#include "util/json.h"

namespace treadmill {
namespace fault {
namespace {

TEST(FaultPlanTest, FromJsonParsesEveryKind)
{
    const auto plan = FaultPlan::fromJson(json::parse(R"({
        "events": [
            {"kind": "server_stall", "start_ms": 50, "duration_ms": 3,
             "period_ms": 100, "repeat": 20},
            {"kind": "link_loss", "target": "client0",
             "start_ms": 100, "duration_ms": 40,
             "loss_probability": 0.2},
            {"kind": "link_degrade", "start_ms": 200,
             "duration_ms": 50, "bandwidth_factor": 0.25,
             "extra_latency_us": 150},
            {"kind": "server_crash", "start_ms": 300,
             "duration_ms": 80, "warmup_ms": 40,
             "warmup_penalty_us": 400},
            {"kind": "nic_storm", "start_ms": 450, "duration_ms": 30,
             "irq_cost_factor": 25}
        ]})"));
    ASSERT_EQ(plan.events.size(), 5u);

    const FaultEvent &stall = plan.events[0];
    EXPECT_EQ(stall.kind, FaultKind::ServerStall);
    EXPECT_EQ(stall.start, milliseconds(50));
    EXPECT_EQ(stall.duration, milliseconds(3));
    EXPECT_EQ(stall.period, milliseconds(100));
    EXPECT_EQ(stall.repeatCount, 20u);

    const FaultEvent &loss = plan.events[1];
    EXPECT_EQ(loss.kind, FaultKind::LinkLoss);
    EXPECT_EQ(loss.target, "client0");
    EXPECT_DOUBLE_EQ(loss.lossProbability, 0.2);

    const FaultEvent &degrade = plan.events[2];
    EXPECT_EQ(degrade.kind, FaultKind::LinkDegrade);
    EXPECT_DOUBLE_EQ(degrade.bandwidthFactor, 0.25);
    EXPECT_EQ(degrade.extraLatency, microseconds(150));

    const FaultEvent &crash = plan.events[3];
    EXPECT_EQ(crash.kind, FaultKind::ServerCrash);
    EXPECT_EQ(crash.warmup, milliseconds(40));
    EXPECT_EQ(crash.warmupPenalty, microseconds(400));

    const FaultEvent &storm = plan.events[4];
    EXPECT_EQ(storm.kind, FaultKind::NicInterruptStorm);
    EXPECT_DOUBLE_EQ(storm.irqCostFactor, 25.0);
}

TEST(FaultPlanTest, EmptyDocumentIsTheEmptyPlan)
{
    const auto plan = FaultPlan::fromJson(json::parse("{}"));
    EXPECT_TRUE(plan.empty());
    EXPECT_TRUE(plan.events.empty());
}

TEST(FaultPlanTest, FractionalMillisecondsSupported)
{
    const auto plan = FaultPlan::fromJson(json::parse(R"({
        "events": [{"kind": "server_stall",
                    "start_ms": 0.5, "duration_ms": 0.25}]})"));
    EXPECT_EQ(plan.events[0].start, microseconds(500));
    EXPECT_EQ(plan.events[0].duration, microseconds(250));
}

TEST(FaultPlanTest, JsonRoundTrips)
{
    const auto original = FaultPlan::fromJson(json::parse(R"({
        "events": [
            {"kind": "server_stall", "start_ms": 10, "duration_ms": 2,
             "period_ms": 40, "repeat": 5},
            {"kind": "link_loss", "target": "server-ingress",
             "start_ms": 60, "duration_ms": 5,
             "loss_probability": 0.75},
            {"kind": "link_degrade", "start_ms": 80, "duration_ms": 5,
             "bandwidth_factor": 0.5, "extra_latency_us": 20},
            {"kind": "server_crash", "start_ms": 100,
             "duration_ms": 10, "warmup_ms": 5,
             "warmup_penalty_us": 100},
            {"kind": "nic_storm", "start_ms": 150, "duration_ms": 10,
             "irq_cost_factor": 8}
        ]})"));
    const auto back = FaultPlan::fromJson(original.toJson());
    ASSERT_EQ(back.events.size(), original.events.size());
    for (std::size_t i = 0; i < original.events.size(); ++i) {
        const FaultEvent &a = original.events[i];
        const FaultEvent &b = back.events[i];
        EXPECT_EQ(b.kind, a.kind) << "event " << i;
        EXPECT_EQ(b.start, a.start);
        EXPECT_EQ(b.duration, a.duration);
        EXPECT_EQ(b.target, a.target);
        EXPECT_EQ(b.period, a.period);
        EXPECT_EQ(b.repeatCount, a.repeatCount);
        EXPECT_DOUBLE_EQ(b.lossProbability, a.lossProbability);
        EXPECT_DOUBLE_EQ(b.bandwidthFactor, a.bandwidthFactor);
        EXPECT_EQ(b.extraLatency, a.extraLatency);
        EXPECT_EQ(b.warmup, a.warmup);
        EXPECT_EQ(b.warmupPenalty, a.warmupPenalty);
        EXPECT_DOUBLE_EQ(b.irqCostFactor, a.irqCostFactor);
    }
}

TEST(FaultPlanTest, KindNamesRoundTrip)
{
    for (FaultKind kind :
         {FaultKind::LinkLoss, FaultKind::LinkDegrade,
          FaultKind::ServerStall, FaultKind::ServerCrash,
          FaultKind::NicInterruptStorm})
        EXPECT_EQ(faultKindFromName(faultKindName(kind)), kind);
    EXPECT_THROW(faultKindFromName("cosmic_ray"), ConfigError);
    // The rack fault is gone: a plan naming it is refused by name.
    try {
        faultKindFromName("tor_outage");
        ADD_FAILURE() << "tor_outage was accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("\"tor_outage\""),
                  std::string::npos)
            << e.what();
    }
}

FaultEvent
stallEvent(SimTime start, SimDuration duration)
{
    FaultEvent ev;
    ev.kind = FaultKind::ServerStall;
    ev.start = start;
    ev.duration = duration;
    return ev;
}

TEST(FaultPlanTest, BackendTargetedFaultsParseAndRoundTrip)
{
    const auto plan = FaultPlan::fromJson(json::parse(R"({
        "events": [
            {"kind": "server_stall", "backend": 2, "start_ms": 10,
             "duration_ms": 3},
            {"kind": "server_crash", "start_ms": 50,
             "duration_ms": 10}
        ]})"));
    ASSERT_EQ(plan.events.size(), 2u);
    EXPECT_EQ(plan.events[0].backend, 2);
    EXPECT_EQ(plan.events[1].backend, -1); // default: the front server
    EXPECT_NO_THROW(plan.validate());

    const auto back = FaultPlan::fromJson(plan.toJson());
    ASSERT_EQ(back.events.size(), 2u);
    EXPECT_EQ(back.events[0].backend, 2);
    EXPECT_EQ(back.events[1].backend, -1);
}

TEST(FaultPlanTest, ValidateRejectsBadBackendTargets)
{
    FaultPlan plan;
    plan.events.push_back(stallEvent(0, milliseconds(1)));
    plan.events[0].backend = -2;
    EXPECT_THROW(plan.validate(), ConfigError);

    // Link faults have string targets, not backend ids.
    plan.events[0].kind = FaultKind::LinkLoss;
    plan.events[0].backend = 1;
    plan.events[0].lossProbability = 0.5;
    EXPECT_THROW(plan.validate(), ConfigError);
}

TEST(FaultPlanTest, SameKindOnDistinctBackendsMayOverlap)
{
    // The overlap rule is per (kind, target, backend): the same stall
    // window on two different shards is fine; on one shard it is not.
    FaultPlan plan;
    plan.events.push_back(stallEvent(milliseconds(10), milliseconds(5)));
    plan.events.push_back(stallEvent(milliseconds(12), milliseconds(5)));
    plan.events[0].backend = 0;
    plan.events[1].backend = 1;
    EXPECT_NO_THROW(plan.validate());

    plan.events[1].backend = 0;
    EXPECT_THROW(plan.validate(), ConfigError);
}

TEST(FaultPlanTest, ValidateRejectsBadRanges)
{
    FaultPlan plan;
    plan.events.push_back(stallEvent(0, 0)); // zero duration
    EXPECT_THROW(plan.validate(), ConfigError);

    plan.events = {stallEvent(0, milliseconds(1))};
    plan.events[0].repeatCount = 0;
    EXPECT_THROW(plan.validate(), ConfigError);

    // Period shorter than the window it repeats.
    plan.events = {stallEvent(0, milliseconds(5))};
    plan.events[0].repeatCount = 2;
    plan.events[0].period = milliseconds(2);
    EXPECT_THROW(plan.validate(), ConfigError);

    plan.events = {stallEvent(0, milliseconds(1))};
    plan.events[0].kind = FaultKind::LinkLoss;
    plan.events[0].lossProbability = 1.5;
    EXPECT_THROW(plan.validate(), ConfigError);

    plan.events[0].kind = FaultKind::LinkDegrade;
    plan.events[0].lossProbability = 0.0;
    plan.events[0].bandwidthFactor = 0.0;
    EXPECT_THROW(plan.validate(), ConfigError);

    plan.events[0].kind = FaultKind::NicInterruptStorm;
    plan.events[0].bandwidthFactor = 1.0;
    plan.events[0].irqCostFactor = 0.5;
    EXPECT_THROW(plan.validate(), ConfigError);

    // Crash warm-up without a penalty is meaningless.
    plan.events[0].kind = FaultKind::ServerCrash;
    plan.events[0].irqCostFactor = 1.0;
    plan.events[0].warmup = milliseconds(10);
    plan.events[0].warmupPenalty = 0;
    EXPECT_THROW(plan.validate(), ConfigError);
}

TEST(FaultPlanTest, ValidateRejectsOverlappingSameKindWindows)
{
    FaultPlan plan;
    plan.events.push_back(stallEvent(milliseconds(10), milliseconds(5)));
    plan.events.push_back(stallEvent(milliseconds(12), milliseconds(5)));
    EXPECT_THROW(plan.validate(), ConfigError);

    // Different kinds may overlap freely.
    plan.events[1].kind = FaultKind::NicInterruptStorm;
    EXPECT_NO_THROW(plan.validate());

    // Repeat expansion participates in the overlap check.
    plan.events.clear();
    plan.events.push_back(stallEvent(0, milliseconds(5)));
    plan.events[0].repeatCount = 3;
    plan.events[0].period = milliseconds(20);
    plan.events.push_back(
        stallEvent(milliseconds(42), milliseconds(5)));
    EXPECT_THROW(plan.validate(), ConfigError);
}

TEST(FaultPlanTest, AdjacentWindowsAllowed)
{
    FaultPlan plan;
    plan.events.push_back(stallEvent(milliseconds(10), milliseconds(5)));
    plan.events.push_back(stallEvent(milliseconds(15), milliseconds(5)));
    EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlanTest, FromJsonRejectsUnknownKind)
{
    EXPECT_THROW(FaultPlan::fromJson(json::parse(R"({
        "events": [{"kind": "gamma_burst", "duration_ms": 1}]})")),
                 ConfigError);
}

} // namespace
} // namespace fault
} // namespace treadmill
