/** @file Unit tests for the simulation driver. */

#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/types.h"

namespace treadmill {
namespace sim {
namespace {

TEST(SimulationTest, ClockStartsAtZero)
{
    Simulation sim;
    EXPECT_EQ(sim.now(), 0u);
}

TEST(SimulationTest, ClockAdvancesToEventTimes)
{
    Simulation sim;
    std::vector<SimTime> seen;
    sim.schedule(microseconds(10), [&] { seen.push_back(sim.now()); });
    sim.schedule(microseconds(5), [&] { seen.push_back(sim.now()); });
    sim.run();
    EXPECT_EQ(seen,
              (std::vector<SimTime>{microseconds(5), microseconds(10)}));
    EXPECT_EQ(sim.now(), microseconds(10));
}

TEST(SimulationTest, EventsCanScheduleEvents)
{
    Simulation sim;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            sim.schedule(100, chain);
    };
    sim.schedule(100, chain);
    sim.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(sim.now(), 500u);
    EXPECT_EQ(sim.eventsExecuted(), 5u);
}

TEST(SimulationTest, RunUntilStopsAtDeadline)
{
    Simulation sim;
    int fired = 0;
    for (int i = 1; i <= 10; ++i)
        sim.schedule(static_cast<SimDuration>(i) * 100, [&] { ++fired; });
    sim.runUntil(550);
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(sim.now(), 550u);
    // Remaining events still pending.
    EXPECT_EQ(sim.pendingEvents(), 5u);
}

TEST(SimulationTest, RunUntilExcludesDeadlineInstant)
{
    Simulation sim;
    bool fired = false;
    sim.schedule(100, [&] { fired = true; });
    sim.runUntil(100);
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(SimulationTest, RunUntilAdvancesClockWhenIdle)
{
    Simulation sim;
    sim.runUntil(milliseconds(5));
    EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(SimulationTest, StopHaltsRun)
{
    Simulation sim;
    int fired = 0;
    for (int i = 1; i <= 10; ++i) {
        sim.schedule(static_cast<SimDuration>(i), [&] {
            ++fired;
            if (fired == 3)
                sim.stop();
        });
    }
    sim.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(sim.pendingEvents(), 7u);
}

TEST(SimulationTest, CancelledEventDoesNotFire)
{
    Simulation sim;
    bool ran = false;
    const EventId id = sim.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(sim.cancel(id));
    sim.run();
    EXPECT_FALSE(ran);
}

TEST(SimulationTest, ScheduleAtAbsoluteTime)
{
    Simulation sim;
    SimTime seen = 0;
    sim.scheduleAt(microseconds(42), [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, microseconds(42));
}

TEST(SimulationDeathTest, SchedulingInThePastPanics)
{
    Simulation sim;
    sim.schedule(100, [] {});
    sim.run();
    EXPECT_DEATH(sim.scheduleAt(50, [] {}), "past");
}

TEST(SimulationTest, SameInstantEventsRunInScheduleOrder)
{
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        sim.schedule(100, [&order, i] { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, EventTagsCountUnderTheirNamesFromTheFirstCount)
{
    Simulation sim;
    const std::size_t before = sim.metrics().size();
    sim.countEvent(EventTag::NetDelivery);
    sim.countEvent(EventTag::NetDelivery);
    // Only a counted tag registers a counter, so snapshots list the
    // tags a run used and no others.
    EXPECT_EQ(sim.metrics().size(), before + 1);
    EXPECT_EQ(sim.metrics().counter("sim.events.net.delivery").value(), 2u);
    EXPECT_STREQ(eventTagName(EventTag::ClientSend), "client.send");
    EXPECT_STREQ(eventTagName(EventTag::FaultWarmupDelay),
                 "fault.warmup_delay");
}

} // namespace
} // namespace sim
} // namespace treadmill
