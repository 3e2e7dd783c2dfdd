/** @file Unit tests for per-run placement (hysteresis source). */

#include "hw/placement.h"

#include <gtest/gtest.h>

#include <set>

#include "hw/machine_spec.h"

namespace treadmill {
namespace hw {
namespace {

TEST(PlacementTest, DeterministicForSameSeed)
{
    HardwareConfig cfg;
    PlacementState a(cfg, 42);
    PlacementState b(cfg, 42);
    for (unsigned w = 0; w < kMachine.workerThreads; ++w)
        EXPECT_EQ(a.workerCore(w), b.workerCore(w));
    for (std::uint64_t c = 0; c < 64; ++c) {
        EXPECT_EQ(a.workerOfConnection(c), b.workerOfConnection(c));
        EXPECT_EQ(a.bufferIsLocal(c), b.bufferIsLocal(c));
    }
    EXPECT_EQ(a.nicQueueRotation(), b.nicQueueRotation());
    EXPECT_DOUBLE_EQ(a.localBufferFraction(), b.localBufferFraction());
}

TEST(PlacementTest, DifferentSeedsDiffer)
{
    HardwareConfig cfg;
    std::set<double> fractions;
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        PlacementState p(cfg, seed);
        fractions.insert(p.localBufferFraction());
    }
    // Essentially every run should draw a distinct local fraction.
    EXPECT_GT(fractions.size(), 12u);
}

TEST(PlacementTest, WorkerCoresAreDistinctSocket0Cores)
{
    HardwareConfig cfg;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        PlacementState p(cfg, seed);
        std::set<unsigned> cores;
        for (unsigned w = 0; w < kMachine.workerThreads; ++w) {
            const unsigned c = p.workerCore(w);
            EXPECT_LT(c, kMachine.coresPerSocket); // socket 0
            cores.insert(c);
        }
        EXPECT_EQ(cores.size(), kMachine.workerThreads); // distinct
    }
}

TEST(PlacementTest, ConnectionsSpreadAcrossWorkers)
{
    HardwareConfig cfg;
    PlacementState p(cfg, 7);
    std::vector<int> counts(kMachine.workerThreads, 0);
    const int conns = 1000;
    for (std::uint64_t c = 0; c < conns; ++c)
        ++counts[p.workerOfConnection(c)];
    for (unsigned w = 0; w < kMachine.workerThreads; ++w)
        EXPECT_NEAR(counts[w], conns / static_cast<int>(kMachine.workerThreads),
                    conns / 8);
}

TEST(PlacementTest, SameNodeLocalFractionInRange)
{
    HardwareConfig cfg; // numa low = same-node
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        PlacementState p(cfg, seed);
        EXPECT_GE(p.localBufferFraction(), 0.78);
        EXPECT_LE(p.localBufferFraction(), 0.92);
        // Empirical local fraction tracks the drawn fraction.
        int local = 0;
        const int conns = 2000;
        for (std::uint64_t c = 0; c < conns; ++c)
            local += p.bufferIsLocal(c) ? 1 : 0;
        EXPECT_NEAR(static_cast<double>(local) / conns,
                    p.localBufferFraction(), 0.05);
    }
}

TEST(PlacementTest, InterleaveBuffersNeverWhollyLocal)
{
    HardwareConfig cfg;
    cfg.numa = NumaPolicy::Interleave;
    PlacementState p(cfg, 3);
    for (std::uint64_t c = 0; c < 100; ++c)
        EXPECT_FALSE(p.bufferIsLocal(c));
    EXPECT_NEAR(p.perAccessRemoteProbability(), 0.5, 0.05);
}

TEST(PlacementTest, NicRotationWithinQueueCount)
{
    HardwareConfig cfg;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        PlacementState p(cfg, seed);
        EXPECT_LT(p.nicQueueRotation(), kMachine.nicQueues());
    }
}

} // namespace
} // namespace hw
} // namespace treadmill
