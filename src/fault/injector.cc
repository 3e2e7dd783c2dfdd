#include "fault/injector.h"

#include <utility>

#include "util/error.h"
#include "util/strings.h"

namespace treadmill {
namespace fault {

namespace {

/** FNV-1a over @p s: a stable per-link sub-stream key, so each link's
 *  loss stream depends only on the run seed and the link's name. */
std::uint64_t
nameKey(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

FaultInjector::FaultInjector(sim::Simulation &sim_, FaultPlan plan_,
                             std::uint64_t runSeed)
    : sim(sim_), plan(std::move(plan_)), seed(runSeed),
      appliedCounter(sim_.metrics().counter("fault.windows_applied"))
{
    plan.validate();
}

void
FaultInjector::attachLinks(const std::vector<net::Link *> &links)
{
    linkHooks = links;
    const Rng lossRoot = Rng(0xfa017155eedull ^ seed);
    for (net::Link *link : linkHooks)
        link->armFaults(lossRoot.substream(nameKey(link->name())));
}

void
FaultInjector::attachShim(server::ServiceFaultShim &shim_)
{
    shim = &shim_;
}

void
FaultInjector::attachNic(hw::Nic &nic_)
{
    nic = &nic_;
}

void
FaultInjector::attachBackendShim(std::uint32_t backend,
                                 server::ServiceFaultShim &shim_)
{
    backendShims[backend] = &shim_;
}

void
FaultInjector::attachBackendNic(std::uint32_t backend, hw::Nic &nic_)
{
    backendNics[backend] = &nic_;
}

std::vector<net::Link *>
FaultInjector::matchLinks(const std::string &target) const
{
    std::vector<net::Link *> matched;
    for (net::Link *link : linkHooks) {
        if (target.empty() ||
            link->name().find(target) != std::string::npos)
            matched.push_back(link);
    }
    return matched;
}

void
FaultInjector::scheduleWindow(const FaultEvent &ev, SimTime start)
{
    const SimTime end = start + ev.duration;
    std::string label = faultKindName(ev.kind);
    if (!ev.target.empty())
        label += "(" + ev.target + ")";
    if (ev.backend >= 0)
        label += strprintf("[backend%d]", ev.backend);
    windows.push_back({label, start, end});

    // Server faults resolve their hook by backend id: -1 is the
    // classic front-server shim/NIC, >= 0 a cluster shard's.
    const auto shimFor = [&]() -> server::ServiceFaultShim * {
        if (ev.backend < 0)
            return shim;
        const auto it =
            backendShims.find(static_cast<std::uint32_t>(ev.backend));
        return it != backendShims.end() ? it->second : nullptr;
    };
    const auto nicFor = [&]() -> hw::Nic * {
        if (ev.backend < 0)
            return nic;
        const auto it =
            backendNics.find(static_cast<std::uint32_t>(ev.backend));
        return it != backendNics.end() ? it->second : nullptr;
    };

    const auto applied = [this] {
        appliedCounter.add();
        sim.countEvent(sim::EventTag::FaultApply);
    };

    switch (ev.kind) {
      case FaultKind::LinkLoss: {
        auto links = matchLinks(ev.target);
        if (links.empty())
            throw ConfigError(strprintf(
                "link_loss target \"%s\" matches no link",
                ev.target.c_str()));
        const double p = ev.lossProbability;
        sim.scheduleAt(start, [links, p, applied] {
            for (net::Link *link : links)
                link->setLossProbability(p);
            applied();
        });
        sim.scheduleAt(end, [links] {
            for (net::Link *link : links)
                link->setLossProbability(0.0);
        });
        break;
      }
      case FaultKind::ServerStall: {
        server::ServiceFaultShim *target = shimFor();
        if (target == nullptr)
            throw ConfigError(strprintf(
                "server_stall fault (backend %d) needs an attached "
                "server shim",
                ev.backend));
        sim.scheduleAt(start, [target, end, applied] {
            target->beginStall(end);
            applied();
        });
        break;
      }
      case FaultKind::ServerCrash: {
        server::ServiceFaultShim *target = shimFor();
        if (target == nullptr)
            throw ConfigError(strprintf(
                "server_crash fault (backend %d) needs an attached "
                "server shim",
                ev.backend));
        const SimDuration warmup = ev.warmup;
        const SimDuration penalty = ev.warmupPenalty;
        sim.scheduleAt(start, [target, end, warmup, penalty, applied] {
            target->beginCrash(end, warmup, penalty);
            applied();
        });
        if (warmup > 0)
            windows.push_back({label + ":warmup", end, end + warmup});
        break;
      }
      case FaultKind::NicInterruptStorm: {
        hw::Nic *target = nicFor();
        if (target == nullptr)
            throw ConfigError(strprintf(
                "nic_storm fault (backend %d) needs an attached "
                "server NIC",
                ev.backend));
        const double factor = ev.irqCostFactor;
        sim.scheduleAt(start, [target, factor, applied] {
            target->setIrqLoadFactor(factor);
            applied();
        });
        sim.scheduleAt(end,
                       [target] { target->setIrqLoadFactor(1.0); });
        break;
      }
    }
}

void
FaultInjector::arm()
{
    for (const FaultEvent &ev : plan.events) {
        for (std::uint32_t k = 0; k < ev.repeatCount; ++k)
            scheduleWindow(ev, ev.start + k * ev.period);
    }
}

} // namespace fault
} // namespace treadmill
