#include "net/topology.h"

#include "util/error.h"
#include "util/logging.h"
#include "util/strings.h"

namespace treadmill {
namespace net {

void
Path::addLink(Link *link)
{
    TM_ASSERT(link != nullptr, "null link in path");
    links.push_back(link);
}

void
Path::send(sim::Simulation &sim, const Packet &packet,
           DeliveryFn onDelivered) const
{
    TM_ASSERT(!links.empty(), "sending on an empty path");
    const std::uint32_t transit =
        transits.acquire(&sim, packet, std::size_t{0},
                         std::move(onDelivered));
    sendHop(transit);
}

void
Path::sendHop(std::uint32_t transit) const
{
    Transit &tr = transits.get(transit);
    const bool accepted = links[tr.hop]->send(
        tr.packet, [this, transit](const Packet &p) {
            Transit &hop = transits.get(transit);
            if (hop.hop + 1 == links.size()) {
                DeliveryFn cb = std::move(hop.deliver);
                transits.release(transit);
                cb(p);
                return;
            }
            // Switch forwarding latency between consecutive links.
            ++hop.hop;
            hop.sim->schedule(kSwitchHopLatency,
                             [this, transit] { sendHop(transit); });
        });
    if (!accepted) {
        // Injected loss swallowed the packet mid-path: drop the
        // transit (and the captured final callback) immediately so
        // lossy runs do not accumulate dead per-packet state.
        transits.release(transit);
    }
}

Cluster::Cluster(sim::Simulation &sim, double serverLinkGbps,
                 const std::vector<ClientSpec> &clients)
{
    if (clients.empty())
        throw ConfigError("cluster needs at least one client");

    serverIn = std::make_unique<Link>(sim, "server-ingress",
                                      serverLinkGbps, microseconds(1));
    serverOut = std::make_unique<Link>(sim, "server-egress",
                                       serverLinkGbps, microseconds(1));

    toServer.resize(clients.size());
    toClient.resize(clients.size());
    remote.resize(clients.size());

    for (std::size_t i = 0; i < clients.size(); ++i) {
        const ClientSpec &spec = clients[i];
        remote[i] = spec.remoteRack;
        const SimDuration extra =
            spec.remoteRack ? kCrossRackExtraPropagation : SimDuration{0};

        auto up = std::make_unique<Link>(
            sim, strprintf("client%zu-uplink", i), kAccessLinkGbps,
            microseconds(1) + extra);
        auto down = std::make_unique<Link>(
            sim, strprintf("client%zu-downlink", i), kAccessLinkGbps,
            microseconds(1) + extra);

        toServer[i].addLink(up.get());
        toServer[i].addLink(serverIn.get());
        toClient[i].addLink(serverOut.get());
        toClient[i].addLink(down.get());

        ownedLinks.push_back(std::move(up));
        ownedLinks.push_back(std::move(down));
    }
}

std::vector<Link *>
Cluster::allLinks()
{
    std::vector<Link *> links;
    links.reserve(ownedLinks.size() + 2);
    for (auto &link : ownedLinks)
        links.push_back(link.get());
    links.push_back(serverIn.get());
    links.push_back(serverOut.get());
    return links;
}

const Path &
Cluster::clientToServer(std::size_t i) const
{
    TM_ASSERT(i < toServer.size(), "client index out of range");
    return toServer[i];
}

const Path &
Cluster::serverToClient(std::size_t i) const
{
    TM_ASSERT(i < toClient.size(), "client index out of range");
    return toClient[i];
}

ShardFabric::ShardFabric(sim::Simulation &sim,
                         const std::vector<BackendSpec> &backends)
{
    if (backends.empty())
        throw ConfigError("shard fabric needs at least one backend");

    forward.resize(backends.size());
    reverse.resize(backends.size());
    racks.resize(backends.size());

    for (std::size_t i = 0; i < backends.size(); ++i) {
        const BackendSpec &spec = backends[i];
        racks[i] = spec.rack;
        // The router tier sits on rack 0; backends elsewhere pay the
        // aggregation-layer hop both ways.
        const SimDuration extra = spec.rack != 0
                                      ? kCrossRackExtraPropagation
                                      : SimDuration{0};

        auto up = std::make_unique<Link>(
            sim, strprintf("rack%u-backend%zu-uplink", spec.rack, i),
            kAccessLinkGbps, microseconds(1) + extra);
        auto down = std::make_unique<Link>(
            sim, strprintf("rack%u-backend%zu-downlink", spec.rack, i),
            kAccessLinkGbps, microseconds(1) + extra);

        forward[i].addLink(up.get());
        reverse[i].addLink(down.get());

        ownedLinks.push_back(std::move(up));
        ownedLinks.push_back(std::move(down));
    }
}

const Path &
ShardFabric::toBackend(std::size_t i) const
{
    TM_ASSERT(i < forward.size(), "backend index out of range");
    return forward[i];
}

const Path &
ShardFabric::fromBackend(std::size_t i) const
{
    TM_ASSERT(i < reverse.size(), "backend index out of range");
    return reverse[i];
}

std::uint32_t
ShardFabric::rackOf(std::size_t i) const
{
    TM_ASSERT(i < racks.size(), "backend index out of range");
    return racks[i];
}

std::vector<Link *>
ShardFabric::allLinks()
{
    std::vector<Link *> links;
    links.reserve(ownedLinks.size());
    for (auto &link : ownedLinks)
        links.push_back(link.get());
    return links;
}

std::vector<Link *>
ShardFabric::rackLinks(std::uint32_t rack)
{
    std::vector<Link *> links;
    for (std::size_t i = 0; i < racks.size(); ++i) {
        if (racks[i] == rack) {
            links.push_back(ownedLinks[2 * i].get());
            links.push_back(ownedLinks[2 * i + 1].get());
        }
    }
    return links;
}

std::vector<Link *>
ShardFabric::backendLinks(std::size_t i)
{
    TM_ASSERT(i < racks.size(), "backend index out of range");
    return {ownedLinks[2 * i].get(), ownedLinks[2 * i + 1].get()};
}

} // namespace net
} // namespace treadmill
