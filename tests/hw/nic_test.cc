/** @file Unit tests for RSS interrupt steering. */

#include "hw/nic.h"

#include <gtest/gtest.h>

#include <set>

namespace treadmill {
namespace hw {
namespace {

TEST(NicTest, QueueWithinHashSpace)
{
    HardwareConfig cfg;
    PlacementState placement(cfg, 1);
    Nic nic(cfg, placement);
    EXPECT_EQ(nic.queues(), 16u);
    for (std::uint64_t c = 0; c < 1000; ++c)
        EXPECT_LT(nic.queueOf(c), 16u);
}

TEST(NicTest, HashIsDeterministicPerConnection)
{
    HardwareConfig cfg;
    PlacementState placement(cfg, 1);
    Nic nic(cfg, placement);
    for (std::uint64_t c = 0; c < 100; ++c)
        EXPECT_EQ(nic.queueOf(c), nic.queueOf(c));
}

TEST(NicTest, HashSpreadsAcrossQueues)
{
    HardwareConfig cfg;
    PlacementState placement(cfg, 1);
    Nic nic(cfg, placement);
    std::set<unsigned> used;
    for (std::uint64_t c = 0; c < 256; ++c)
        used.insert(nic.queueOf(c));
    EXPECT_EQ(used.size(), 16u);
}

TEST(NicTest, SameNodeAffinityStaysOnSocket0)
{
    HardwareConfig cfg; // nic low = same-node
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        PlacementState placement(cfg, seed);
        Nic nic(cfg, placement);
        for (unsigned q = 0; q < nic.queues(); ++q)
            EXPECT_EQ(kMachine.socketOf(nic.coreOfQueue(q)), 0u);
    }
}

TEST(NicTest, AllNodesAffinityUsesBothSockets)
{
    HardwareConfig cfg;
    cfg.nic = NicAffinity::AllNodes;
    PlacementState placement(cfg, 2);
    Nic nic(cfg, placement);
    std::set<unsigned> sockets;
    for (unsigned q = 0; q < nic.queues(); ++q)
        sockets.insert(kMachine.socketOf(nic.coreOfQueue(q)));
    EXPECT_EQ(sockets.size(), 2u);
}

TEST(NicTest, RotationChangesMappingAcrossRuns)
{
    HardwareConfig cfg;
    std::set<unsigned> firstQueueCores;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        PlacementState placement(cfg, seed);
        Nic nic(cfg, placement);
        firstQueueCores.insert(nic.coreOfQueue(0));
    }
    EXPECT_GT(firstQueueCores.size(), 3u);
}

TEST(NicTest, IrqCoreComposesHashAndAffinity)
{
    HardwareConfig cfg;
    PlacementState placement(cfg, 5);
    Nic nic(cfg, placement);
    for (std::uint64_t c = 0; c < 50; ++c)
        EXPECT_EQ(nic.irqCore(c), nic.coreOfQueue(nic.queueOf(c)));
}

} // namespace
} // namespace hw
} // namespace treadmill
