#include "core/controller.h"

#include <cmath>

#include "util/error.h"
#include "util/logging.h"

namespace treadmill {
namespace core {

OpenLoopController::OpenLoopController(sim::Simulation &sim_,
                                       double requestsPerSecond,
                                       const Rng &rng_)
    : sim(sim_), interArrival(requestsPerSecond / 1e9), rng(rng_)
{
}

void
OpenLoopController::start(IssueFn issue_)
{
    TM_ASSERT(issue_ != nullptr, "controller needs an issue callback");
    issue = std::move(issue_);
    running = true;
    nextSend = sim.now();
    scheduleNext();
}

void
OpenLoopController::scheduleNext()
{
    if (gapPos == kGapBatch) {
        for (double &g : gaps)
            g = interArrival.sample(rng);
        gapPos = 0;
    }
    nextSend += static_cast<SimDuration>(std::max(1.0, gaps[gapPos++]));
    sim.scheduleAt(nextSend, [this] {
        if (!running)
            return;
        // The intended send instant is the scheduled one: open-loop
        // timing never depends on response status.
        issue(sim.now());
        scheduleNext();
    });
}

ClosedLoopController::ClosedLoopController(sim::Simulation &sim_,
                                           unsigned connections,
                                           double targetRps_)
    : sim(sim_), slots(connections), targetRps(targetRps_)
{
    if (connections == 0)
        throw ConfigError("closed loop needs at least one connection");
}

void
ClosedLoopController::start(IssueFn issue_)
{
    TM_ASSERT(issue_ != nullptr, "controller needs an issue callback");
    issue = std::move(issue_);
    running = true;
    if (targetRps > 0.0) {
        nextSend = sim.now();
        scheduleNext();
        return;
    }
    for (unsigned s = 0; s < slots; ++s)
        issue(sim.now());
}

void
ClosedLoopController::scheduleNext()
{
    nextSend += static_cast<SimDuration>(std::max(1.0, 1e9 / targetRps));
    sim.scheduleAt(nextSend, [this] {
        if (!running)
            return;
        timedSend();
        scheduleNext();
    });
}

void
ClosedLoopController::timedSend()
{
    if (outstanding >= slots) {
        // Every connection busy: the send blocks until a response
        // frees a slot. This clipping is the closed-loop bias.
        ++pendingSends;
        ++deferred;
        return;
    }
    ++outstanding;
    issue(sim.now());
}

void
ClosedLoopController::onResponse()
{
    if (!running)
        return;
    if (targetRps > 0.0) {
        TM_ASSERT(outstanding > 0, "response without outstanding send");
        --outstanding;
        if (pendingSends > 0) {
            --pendingSends;
            ++outstanding;
            issue(sim.now());
        }
        return;
    }
    issue(sim.now());
}

unsigned
closedLoopConnectionsFor(double requestsPerSecond,
                         double meanResponseSeconds)
{
    if (!(requestsPerSecond > 0.0) || !(meanResponseSeconds > 0.0))
        throw ConfigError("rates and response times must be positive");
    return static_cast<unsigned>(
        std::ceil(requestsPerSecond * meanResponseSeconds));
}

} // namespace core
} // namespace treadmill
