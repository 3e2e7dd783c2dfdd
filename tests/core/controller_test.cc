/** @file Unit tests for open- and closed-loop controllers. */

#include "core/controller.h"

#include <gtest/gtest.h>

#include <vector>

#include "stats/summary.h"
#include "util/error.h"

namespace treadmill {
namespace core {
namespace {

TEST(OpenLoopTest, AchievesTargetRate)
{
    sim::Simulation sim;
    OpenLoopController ctl(sim, 100000.0, Rng(1)); // 100k RPS
    std::uint64_t issued = 0;
    ctl.start([&](SimTime) { ++issued; });
    sim.runUntil(milliseconds(100));
    ctl.stop();
    // Expect about 10k sends in 100 ms.
    EXPECT_NEAR(static_cast<double>(issued), 10000.0, 300.0);
}

TEST(OpenLoopTest, InterArrivalsAreExponential)
{
    sim::Simulation sim;
    OpenLoopController ctl(sim, 1e6, Rng(2));
    std::vector<double> gaps;
    SimTime last = 0;
    ctl.start([&](SimTime t) {
        gaps.push_back(toMicros(t - last));
        last = t;
    });
    sim.runUntil(milliseconds(50));
    ctl.stop();
    ASSERT_GT(gaps.size(), 10000u);
    gaps.erase(gaps.begin()); // first gap measured from 0
    const double m = stats::mean(gaps);
    const double sd = stats::stddev(gaps);
    EXPECT_NEAR(m, 1.0, 0.05);     // mean 1 us at 1M RPS
    EXPECT_NEAR(sd / m, 1.0, 0.1); // CV = 1 for exponential
}

TEST(OpenLoopTest, TimingIndependentOfResponses)
{
    // Two identical controllers, one starved of responses: identical
    // send schedules (the defining open-loop property).
    sim::Simulation sim;
    OpenLoopController a(sim, 50000.0, Rng(3));
    OpenLoopController b(sim, 50000.0, Rng(3));
    std::vector<SimTime> sendsA;
    std::vector<SimTime> sendsB;
    a.start([&](SimTime t) {
        sendsA.push_back(t);
        a.onResponse(); // responses arrive instantly
    });
    b.start([&](SimTime t) { sendsB.push_back(t); }); // never responds
    sim.runUntil(milliseconds(20));
    EXPECT_EQ(sendsA, sendsB);
}

TEST(ClosedLoopTest, CapsOutstandingAtSlotCount)
{
    sim::Simulation sim;
    ClosedLoopController ctl(sim, 4);
    std::uint64_t outstanding = 0;
    std::uint64_t maxOutstanding = 0;
    std::vector<SimTime> pendingResponses;
    ctl.start([&](SimTime) {
        ++outstanding;
        maxOutstanding = std::max(maxOutstanding, outstanding);
        // Respond 10 us later.
        sim.schedule(microseconds(10), [&] {
            --outstanding;
            ctl.onResponse();
        });
    });
    sim.runUntil(milliseconds(5));
    ctl.stop();
    sim.runUntil(milliseconds(6));
    EXPECT_EQ(maxOutstanding, 4u);
}

TEST(ClosedLoopTest, ThroughputIsSlotsOverResponseTime)
{
    sim::Simulation sim;
    ClosedLoopController ctl(sim, 8);
    std::uint64_t issued = 0;
    ctl.start([&](SimTime) {
        ++issued;
        sim.schedule(microseconds(100), [&] { ctl.onResponse(); });
    });
    sim.runUntil(milliseconds(100));
    ctl.stop();
    // 8 slots / 100 us = 80k RPS -> 8000 in 100 ms.
    EXPECT_NEAR(static_cast<double>(issued), 8000.0, 100.0);
}

TEST(ClosedLoopTest, StopPreventsReissue)
{
    sim::Simulation sim;
    ClosedLoopController ctl(sim, 2);
    std::uint64_t issued = 0;
    ctl.start([&](SimTime) {
        ++issued;
        sim.schedule(microseconds(10), [&] { ctl.onResponse(); });
    });
    sim.runUntil(microseconds(15));
    ctl.stop();
    const std::uint64_t atStop = issued;
    sim.runUntil(milliseconds(1));
    EXPECT_EQ(issued, atStop);
}

TEST(RateLimitedClosedLoopTest, MatchesTargetRateWhenUncapped)
{
    sim::Simulation sim;
    // 100k RPS, fast responses: the cap never binds.
    ClosedLoopController ctl(sim, 64, 100000.0);
    std::uint64_t issued = 0;
    ctl.start([&](SimTime) {
        ++issued;
        sim.schedule(microseconds(10), [&] { ctl.onResponse(); });
    });
    sim.runUntil(milliseconds(100));
    ctl.stop();
    EXPECT_NEAR(static_cast<double>(issued), 10000.0, 300.0);
    EXPECT_EQ(ctl.deferredSends(), 0u);
}

TEST(RateLimitedClosedLoopTest, CapClipsBursts)
{
    sim::Simulation sim;
    // 100k RPS against 100 us responses needs ~10 outstanding on
    // average; a cap of 4 must defer sends.
    ClosedLoopController ctl(sim, 4, 100000.0);
    std::uint64_t outstanding = 0;
    std::uint64_t maxOutstanding = 0;
    ctl.start([&](SimTime) {
        ++outstanding;
        maxOutstanding = std::max(maxOutstanding, outstanding);
        sim.schedule(microseconds(100), [&] {
            --outstanding;
            ctl.onResponse();
        });
    });
    sim.runUntil(milliseconds(50));
    ctl.stop();
    EXPECT_LE(maxOutstanding, 4u);
    EXPECT_GT(ctl.deferredSends(), 100u);
}

TEST(RateLimitedClosedLoopTest, DeferredSendsFireOnResponse)
{
    sim::Simulation sim;
    ClosedLoopController ctl(sim, 1, 1e6);
    std::vector<SimTime> sends;
    ctl.start([&](SimTime t) {
        sends.push_back(t);
        sim.schedule(microseconds(50), [&] { ctl.onResponse(); });
    });
    sim.runUntil(milliseconds(1));
    ctl.stop();
    // With one slot and a 50 us response, sends occur every ~50 us
    // regardless of the 1M RPS target.
    ASSERT_GT(sends.size(), 10u);
    for (std::size_t i = 1; i < sends.size(); ++i)
        EXPECT_GE(sends[i] - sends[i - 1], microseconds(50) - 1);
}

TEST(ClosedLoopTest, RejectsZeroConnections)
{
    sim::Simulation sim;
    EXPECT_THROW(ClosedLoopController(sim, 0), ConfigError);
}

TEST(ConnectionsSizingTest, LittlesLaw)
{
    // 100k RPS x 100 us mean response = 10 outstanding.
    EXPECT_EQ(closedLoopConnectionsFor(100000.0, 100e-6), 10u);
    EXPECT_EQ(closedLoopConnectionsFor(100000.0, 105e-6), 11u); // ceil
    EXPECT_THROW(closedLoopConnectionsFor(0.0, 1.0), ConfigError);
}

} // namespace
} // namespace core
} // namespace treadmill
