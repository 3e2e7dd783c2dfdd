/**
 * @file
 * Cluster topology: racks, switch hops, and client-to-server paths.
 *
 * The paper's Fig 2 shows a client on a different rack dominating the
 * tail of a naively merged latency distribution; Path distinguishes
 * same-rack (one ToR switch) from cross-rack (ToR - aggregation - ToR)
 * routes so that experiment reproduces.
 */

#ifndef TREADMILL_NET_TOPOLOGY_H_
#define TREADMILL_NET_TOPOLOGY_H_

#include <memory>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "sim/simulation.h"
#include "util/types.h"

namespace treadmill {
namespace net {

/** Per-hop forwarding latency of a switch. */
constexpr SimDuration kSwitchHopLatency = nanoseconds(450);

/** Extra one-way latency for leaving the rack: the aggregation-layer
 *  hops plus their queueing, which the paper's Fig 2 client suffered. */
constexpr SimDuration kCrossRackExtraPropagation = microseconds(40);

/** Bandwidth of every link: client, server access and backend
 *  fabric. */
constexpr double kAccessLinkGbps = 10.0;

/**
 * An ordered sequence of links a packet traverses in one direction.
 * Each hop adds switch forwarding latency; each link adds serialization,
 * queueing, and propagation.
 */
class Path
{
  public:
    Path() = default;
    Path(Path &&) noexcept = default;
    Path &operator=(Path &&) noexcept = default;

    /** Append a link to the path. */
    void addLink(Link *link);

    /** Number of hops. */
    std::size_t hopCount() const { return links.size(); }

    /**
     * Send @p packet down the path; @p onDelivered fires at the far end.
     */
    void send(sim::Simulation &sim, const Packet &packet,
              DeliveryFn onDelivered) const;

  private:
    /** A packet in flight along this path. Pooled so per-hop closures
     *  capture only (this, slot index) and traversal allocates
     *  nothing; the final delivery callback rides in the slot. */
    struct Transit {
        sim::Simulation *sim;
        Packet packet;
        std::size_t hop;
        DeliveryFn deliver;
    };

    /** Transmit the transit's current hop; advances across switch
     *  latency until the last link, then fires its callback. */
    void sendHop(std::uint32_t transit) const;

    std::vector<Link *> links;
    mutable util::RawPool<Transit> transits;
};

/**
 * A two-rack cluster: the server and its clients, some of which may be
 * placed on a remote rack. Owns every link and hands out forward and
 * reverse paths per client.
 */
class Cluster
{
  public:
    /** Per-client placement. */
    struct ClientSpec {
        bool remoteRack = false; ///< True: client sits on the other rack.
    };

    /**
     * @param sim Owning simulation.
     * @param clients One spec per client machine.
     */
    Cluster(sim::Simulation &sim, const std::vector<ClientSpec> &clients);

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    std::size_t clientCount() const { return toServer.size(); }

    /** Path from client @p i to the server. */
    const Path &clientToServer(std::size_t i) const;

    /** Path from the server back to client @p i. */
    const Path &serverToClient(std::size_t i) const;

    /** True when client @p i was placed on the remote rack. */
    bool isRemoteRack(std::size_t i) const { return remote[i]; }

    /** The shared server ingress link (for utilization inspection). */
    const Link &serverIngress() const { return *serverIn; }

    /** The shared server egress link. */
    const Link &serverEgress() const { return *serverOut; }

    /**
     * Every link in the cluster (client up/downlinks plus the shared
     * server links), for the fault injector's name-pattern targeting.
     */
    std::vector<Link *> allLinks();

  private:
    std::vector<std::unique_ptr<Link>> ownedLinks;
    std::unique_ptr<Link> serverIn;
    std::unique_ptr<Link> serverOut;
    std::vector<Path> toServer;
    std::vector<Path> toClient;
    std::vector<bool> remote;
};

/**
 * The backend-side fabric of a sharded cluster: one uplink/downlink
 * pair per backend shard behind the router tier, all on the router's
 * rack. The links keep their "rack0-backend<i>-{up,down}link" names:
 * those are metric keys and link-fault targets in every cluster
 * archive.
 */
class ShardFabric
{
  public:
    ShardFabric(sim::Simulation &sim, std::size_t backends);

    ShardFabric(const ShardFabric &) = delete;
    ShardFabric &operator=(const ShardFabric &) = delete;

    /** Path from the router tier to backend @p i. */
    const Path &toBackend(std::size_t i) const;

    /** Path from backend @p i back to the router tier. */
    const Path &fromBackend(std::size_t i) const;

    /** Every fabric link, for fault-injector name targeting. */
    std::vector<Link *> allLinks();

  private:
    std::vector<std::unique_ptr<Link>> ownedLinks;
    std::vector<Path> forward;
    std::vector<Path> reverse;
};

} // namespace net
} // namespace treadmill

#endif // TREADMILL_NET_TOPOLOGY_H_
