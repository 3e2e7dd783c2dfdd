/** @file Unit tests for link transmission and queueing. */

#include "net/link.h"

#include <gtest/gtest.h>

#include <vector>

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

TEST(LinkTest, RejectsNonPositiveBandwidth)
{
    sim::Simulation s;
    EXPECT_THROW(Link(s, "l", 0.0, 0), ConfigError);
}

TEST(LinkTest, DeliveryIncludesSerializationAndPropagation)
{
    sim::Simulation s;
    // 10 Gbps = 1.25 bytes/ns; 1250 bytes -> 1000 ns serialization.
    Link link(s, "l", 10.0, microseconds(5));
    SimTime delivered = 0;
    link.send(makePacket(1, 1250),
              [&](const Packet &) { delivered = s.now(); });
    s.run();
    EXPECT_EQ(delivered, microseconds(5) + 1000);
}

TEST(LinkTest, BackToBackPacketsQueue)
{
    sim::Simulation s;
    Link link(s, "l", 10.0, 0);
    std::vector<SimTime> deliveries;
    // Three 1250-byte packets sent at t=0 serialize sequentially.
    for (std::uint64_t i = 0; i < 3; ++i) {
        link.send(makePacket(i, 1250),
                  [&](const Packet &) { deliveries.push_back(s.now()); });
    }
    s.run();
    ASSERT_EQ(deliveries.size(), 3u);
    EXPECT_EQ(deliveries[0], 1000u);
    EXPECT_EQ(deliveries[1], 2000u);
    EXPECT_EQ(deliveries[2], 3000u);
}

TEST(LinkTest, IdleLinkDoesNotQueue)
{
    sim::Simulation s;
    Link link(s, "l", 10.0, 0);
    SimTime first = 0;
    SimTime second = 0;
    link.send(makePacket(1, 1250), [&](const Packet &) { first = s.now(); });
    s.run();
    link.send(makePacket(2, 1250),
              [&](const Packet &) { second = s.now(); });
    s.run();
    // Second packet sees an idle transmitter: same 1000ns latency.
    EXPECT_EQ(second - first, 1000u);
}

TEST(LinkTest, CountsTraffic)
{
    sim::Simulation s;
    Link link(s, "l", 10.0, 0);
    link.send(makePacket(1, 100), [](const Packet &) {});
    link.send(makePacket(2, 200), [](const Packet &) {});
    s.run();
    EXPECT_EQ(s.metrics().counter("net.l.packets").value(), 2u);
    EXPECT_EQ(s.metrics().counter("net.l.bytes").value(), 300u);
}

TEST(LinkTest, UtilizationReflectsLoad)
{
    sim::Simulation s;
    Link link(s, "l", 10.0, 0);
    // 1250 bytes = 1000 ns busy; send 5 over 10 us -> 50% utilization.
    for (int i = 0; i < 5; ++i) {
        s.schedule(static_cast<SimDuration>(i) * 2000, [&link, i] {
            link.send(makePacket(static_cast<std::uint64_t>(i), 1250),
                      [](const Packet &) {});
        });
    }
    s.run();
    s.runUntil(10000);
    EXPECT_NEAR(link.utilization(), 0.5, 0.01);
}

TEST(LinkTest, PacketContentsPreserved)
{
    sim::Simulation s;
    Link link(s, "l", 1.0, 0);
    Packet sent;
    sent.seqId = 77;
    sent.connectionId = 5;
    sent.bytes = 99;
    sent.kind = PacketKind::Response;
    Packet got;
    link.send(sent, [&](const Packet &p) { got = p; });
    s.run();
    EXPECT_EQ(got.seqId, 77u);
    EXPECT_EQ(got.connectionId, 5u);
    EXPECT_EQ(got.bytes, 99u);
    EXPECT_EQ(got.kind, PacketKind::Response);
}

} // namespace
} // namespace net
} // namespace treadmill
