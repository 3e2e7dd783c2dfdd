#include "server/fault_shim.h"

#include <algorithm>

namespace treadmill {
namespace server {

ServiceFaultShim::ServiceFaultShim(sim::Simulation &sim_, Service &inner_,
                                   const std::string &scope)
    : sim(sim_), inner(inner_),
      stalledCounter(
          sim_.metrics().counter(scope + ".fault.stalled")),
      droppedCounter(
          sim_.metrics().counter(scope + ".fault.dropped")),
      warmupCounter(
          sim_.metrics().counter(scope + ".fault.warmed_up"))
{
    sim_.metrics().claimScope(scope + ".fault");
    inner.setSink([this](Request *response) { answer(response); });
}

bool
ServiceFaultShim::stalled() const
{
    return sim.now() < stallUntil;
}

bool
ServiceFaultShim::crashed() const
{
    return sim.now() < crashedUntil;
}

void
ServiceFaultShim::receive(Request *request)
{
    const SimTime now = sim.now();

    if (now < crashedUntil) {
        // The process is down: the connection resets and the request
        // is never answered. The client's timeout/retry policy is the
        // only recovery path -- exactly as in production.
        droppedCounter.add();
        return;
    }

    if (now < stallUntil) {
        // Frozen event loop: the request waits in the (unbounded)
        // socket buffer and is delivered when the pause ends. Arrival
        // order is preserved because same-instant events fire in
        // scheduling order.
        stalledCounter.add();
        sim.countEvent(sim::EventTag::FaultStallRelease);
        sim.scheduleAt(stallUntil, [this, request] { receive(request); });
        return;
    }

    if (now < warmupUntil && warmupWindow > 0) {
        // Cold caches after restart: an extra delay that decays
        // linearly to zero across the warm-up window.
        const double remaining =
            static_cast<double>(warmupUntil - now) /
            static_cast<double>(warmupWindow);
        const auto penalty = static_cast<SimDuration>(
            static_cast<double>(warmupMaxPenalty) * remaining);
        warmupCounter.add();
        sim.countEvent(sim::EventTag::FaultWarmupDelay);
        sim.schedule(penalty,
                     [this, request] { inner.receive(request); });
        return;
    }

    inner.receive(request);
}

void
ServiceFaultShim::beginStall(SimTime until)
{
    stallUntil = std::max(stallUntil, until);
}

void
ServiceFaultShim::beginCrash(SimTime restartAt, SimDuration warmup,
                             SimDuration warmupPenalty)
{
    crashedUntil = std::max(crashedUntil, restartAt);
    warmupUntil = restartAt + warmup;
    warmupWindow = warmup;
    warmupMaxPenalty = warmupPenalty;
}

} // namespace server
} // namespace treadmill
