/** @file Unit tests for cluster topology and paths. */

#include "net/topology.h"

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "util/error.h"

namespace treadmill {
namespace net {
namespace {

Packet
makePacket(std::uint64_t seq, std::uint32_t bytes)
{
    Packet p;
    p.seqId = seq;
    p.bytes = bytes;
    return p;
}

/** Packets @p link accepted, read from its registry counter. */
std::uint64_t
packetsOf(sim::Simulation &s, const Link &link)
{
    return s.metrics().counter("net." + link.name() + ".packets").value();
}

TEST(ClusterTest, RejectsEmptyClientList)
{
    sim::Simulation s;
    EXPECT_THROW(Cluster(s, {}), ConfigError);
}

TEST(ClusterTest, BuildsPathsPerClient)
{
    sim::Simulation s;
    Cluster cluster(s, {{}, {}, {}});
    EXPECT_EQ(cluster.clientCount(), 3u);
    EXPECT_EQ(cluster.clientToServer(0).hopCount(), 2u);
    EXPECT_EQ(cluster.serverToClient(0).hopCount(), 2u);
}

TEST(ClusterTest, RemoteRackFlagPropagates)
{
    sim::Simulation s;
    Cluster::ClientSpec local;
    Cluster::ClientSpec remote;
    remote.remoteRack = true;
    Cluster cluster(s, {local, remote});
    EXPECT_FALSE(cluster.isRemoteRack(0));
    EXPECT_TRUE(cluster.isRemoteRack(1));
}

TEST(ClusterTest, RemoteRackPathIsSlower)
{
    sim::Simulation s;
    Cluster::ClientSpec local;
    Cluster::ClientSpec remote;
    remote.remoteRack = true;
    Cluster cluster(s, {local, remote});

    SimTime localDelivery = 0;
    SimTime remoteDelivery = 0;
    cluster.clientToServer(0).send(
        s, makePacket(1, 100),
        [&](const Packet &) { localDelivery = s.now(); });
    cluster.clientToServer(1).send(
        s, makePacket(2, 100),
        [&](const Packet &) { remoteDelivery = s.now(); });
    s.run();
    EXPECT_GT(remoteDelivery, localDelivery);
    EXPECT_GE(remoteDelivery - localDelivery,
              kCrossRackExtraPropagation);
}

TEST(ClusterTest, SharedServerLinkCarriesAllClients)
{
    sim::Simulation s;
    Cluster cluster(s, {{}, {}});
    int delivered = 0;
    cluster.clientToServer(0).send(s, makePacket(1, 100),
                                   [&](const Packet &) { ++delivered; });
    cluster.clientToServer(1).send(s, makePacket(2, 100),
                                   [&](const Packet &) { ++delivered; });
    s.run();
    EXPECT_EQ(delivered, 2);
    EXPECT_EQ(packetsOf(s, cluster.serverIngress()), 2u);
}

TEST(ClusterTest, ForwardAndReverseAreIndependentLinks)
{
    sim::Simulation s;
    Cluster cluster(s, {{}});
    int delivered = 0;
    cluster.clientToServer(0).send(s, makePacket(1, 100),
                                   [&](const Packet &) { ++delivered; });
    cluster.serverToClient(0).send(s, makePacket(2, 100),
                                   [&](const Packet &) { ++delivered; });
    s.run();
    EXPECT_EQ(delivered, 2);
    EXPECT_EQ(packetsOf(s, cluster.serverIngress()), 1u);
    EXPECT_EQ(packetsOf(s, cluster.serverEgress()), 1u);
}

TEST(PathTest, RoundTripThroughClusterCompletes)
{
    sim::Simulation s;
    Cluster cluster(s, {{}});
    bool done = false;
    cluster.clientToServer(0).send(
        s, makePacket(1, 100), [&](const Packet &p) {
            Packet resp = p;
            resp.kind = PacketKind::Response;
            cluster.serverToClient(0).send(
                s, resp, [&](const Packet &) { done = true; });
        });
    s.run();
    EXPECT_TRUE(done);
}

} // namespace
} // namespace net
} // namespace treadmill
