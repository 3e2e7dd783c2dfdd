/** @file Unit and behaviour tests for the assembled Machine. */

#include "hw/machine.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.h"
#include "util/types.h"

namespace treadmill {
namespace hw {
namespace {

HardwareConfig
performanceConfig()
{
    HardwareConfig cfg;
    cfg.dvfs = DvfsGovernor::Performance;
    return cfg;
}

TEST(CoreTest, ExecutesSubmittedWorkFifo)
{
    sim::Simulation s;
    Machine m(s, performanceConfig(), 1);

    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        WorkItem w;
        w.cycles = 2200.0; // 1 us at 2.2 GHz
        w.allowTurbo = false;
        w.done = [&order, i](SimTime, SimTime) { order.push_back(i); };
        m.submit(0, std::move(w));
    }
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(MachineTest, PerformanceGovernorDurationMatchesCycles)
{
    sim::Simulation s;
    Machine m(s, performanceConfig(), 1);

    SimTime start = 0;
    SimTime end = 0;
    WorkItem w;
    w.cycles = 22000.0; // 10 us at 2.2 GHz
    w.allowTurbo = false;
    w.done = [&](SimTime st, SimTime en) {
        start = st;
        end = en;
    };
    m.submit(0, std::move(w));
    s.run();
    EXPECT_EQ(end - start, microseconds(10));
}

TEST(MachineTest, FixedStallAddsToDuration)
{
    sim::Simulation s;
    Machine m(s, performanceConfig(), 1);

    SimDuration dur = 0;
    WorkItem w;
    w.cycles = 22000.0;
    w.fixedStall = microseconds(5);
    w.allowTurbo = false;
    w.done = [&](SimTime st, SimTime en) { dur = en - st; };
    m.submit(0, std::move(w));
    s.run();
    EXPECT_EQ(dur, microseconds(15));
}

TEST(MachineTest, QueuedWorkWaits)
{
    sim::Simulation s;
    Machine m(s, performanceConfig(), 1);

    SimTime secondStart = 0;
    WorkItem a;
    a.cycles = 22000.0;
    a.allowTurbo = false;
    a.done = [](SimTime, SimTime) {};
    WorkItem b;
    b.cycles = 22000.0;
    b.allowTurbo = false;
    b.done = [&](SimTime st, SimTime) { secondStart = st; };
    m.submit(0, std::move(a));
    m.submit(0, std::move(b));
    s.run();
    EXPECT_EQ(secondStart, microseconds(10));
}

TEST(MachineTest, TurboShortensExecution)
{
    sim::Simulation s;
    HardwareConfig cfg = performanceConfig();
    cfg.turbo = TurboMode::On;
    // Use ondemand-off (performance) so step is Base; thermal is full.
    Machine m(s, cfg, 1);

    SimDuration dur = 0;
    WorkItem w;
    w.cycles = 22000.0; // 10 us at base, 7.33 us at 3.0 GHz turbo
    w.allowTurbo = true;
    w.done = [&](SimTime st, SimTime en) { dur = en - st; };
    m.submit(0, std::move(w));
    s.run();
    EXPECT_LT(dur, microseconds(10));
    EXPECT_GE(dur, microseconds(7));
}

TEST(MachineTest, TurboDisabledRunsAtBase)
{
    sim::Simulation s;
    HardwareConfig cfg = performanceConfig(); // turbo off
    Machine m(s, cfg, 1);

    SimDuration dur = 0;
    WorkItem w;
    w.cycles = 22000.0;
    w.allowTurbo = true;
    w.done = [&](SimTime st, SimTime en) { dur = en - st; };
    m.submit(0, std::move(w));
    s.run();
    EXPECT_EQ(dur, microseconds(10));
}

TEST(MachineTest, OndemandColdCoreRunsSlow)
{
    sim::Simulation s;
    HardwareConfig cfg; // ondemand
    Machine m(s, cfg, 1);

    SimDuration dur = 0;
    WorkItem w;
    w.cycles = 22000.0; // 10 us at base, 18.3 us at 1.2 GHz
    w.allowTurbo = true;
    w.done = [&](SimTime st, SimTime en) { dur = en - st; };
    m.submit(0, std::move(w));
    // Run before any governor window elevates the core.
    s.runUntil(microseconds(100));
    EXPECT_GT(dur, microseconds(17));
}

TEST(MachineTest, OndemandBusyCoreRampsUp)
{
    sim::Simulation s;
    HardwareConfig cfg; // ondemand
    Machine m(s, cfg, 1);

    // Saturate core 0 for several governor windows.
    std::function<void(SimTime, SimTime)> resubmit;
    std::uint64_t completions = 0;
    SimDuration lastDur = 0;
    resubmit = [&](SimTime st, SimTime en) {
        ++completions;
        lastDur = en - st;
        WorkItem w;
        w.cycles = 220000.0; // 100 us at base
        w.allowTurbo = false;
        w.done = resubmit;
        m.submit(0, std::move(w));
    };
    WorkItem first;
    first.cycles = 220000.0;
    first.allowTurbo = false;
    first.done = resubmit;
    m.submit(0, std::move(first));

    s.runUntil(milliseconds(20));
    EXPECT_GT(completions, 50u);
    // After ramp-up the core executes at base: 100 us per item.
    EXPECT_EQ(lastDur, microseconds(100));
    EXPECT_GE(m.totalFrequencyTransitions(), 1u);
}

TEST(MachineTest, MemoryStallDependsOnNumaPolicy)
{
    sim::Simulation s1;
    sim::Simulation s2;
    HardwareConfig sameNode = performanceConfig();
    HardwareConfig interleave = performanceConfig();
    interleave.numa = NumaPolicy::Interleave;
    Machine mSame(s1, sameNode, 3);
    Machine mInter(s2, interleave, 3);

    // Average over many connections: interleave must stall more than
    // the mostly-local same-node policy.
    double sumSame = 0.0;
    double sumInter = 0.0;
    const int conns = 2000;
    for (std::uint64_t c = 0; c < conns; ++c) {
        sumSame += static_cast<double>(mSame.memoryStall(c));
        sumInter += static_cast<double>(mInter.memoryStall(c));
    }
    EXPECT_GT(sumInter / conns, sumSame / conns);
}

TEST(MachineTest, MemoryStallMatchesExpectedServiceSizing)
{
    sim::Simulation s;
    Machine m(s, performanceConfig(), 9);
    double sum = 0.0;
    const int conns = 5000;
    for (std::uint64_t c = 0; c < conns; ++c)
        sum += static_cast<double>(m.memoryStall(c));
    const double meanSeconds = sum / conns * 1e-9;
    EXPECT_NEAR(meanSeconds, m.expectedMemoryStallSeconds(),
                meanSeconds * 0.1);
}

TEST(MachineTest, WorkerUtilizationTracksSubmittedLoad)
{
    sim::Simulation s;
    Machine m(s, performanceConfig(), 5);

    // Keep worker 0's core half-busy for 10 ms.
    const unsigned core = m.workerCore(0);
    for (int i = 0; i < 50; ++i) {
        s.schedule(static_cast<SimDuration>(i) * microseconds(200),
                   [&m, core] {
                       WorkItem w;
                       w.cycles = 220000.0; // 100 us
                       w.allowTurbo = false;
                       w.done = [](SimTime, SimTime) {};
                       m.submit(core, std::move(w));
                   });
    }
    s.runUntil(milliseconds(10));
    EXPECT_NEAR(m.coreUtilization(core), 0.5, 0.05);
    // Worker utilization averages over all workers (others idle).
    EXPECT_NEAR(m.workerUtilization(),
                0.5 / kMachine.workerThreads, 0.05);
}

} // namespace
} // namespace hw
} // namespace treadmill
