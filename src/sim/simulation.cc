#include "sim/simulation.h"

#include <string>

#include "util/logging.h"

namespace treadmill {
namespace sim {

Simulation::Simulation()
    : scheduledCounter(&registry.counter("sim.events_scheduled")),
      executedCounter(&registry.counter("sim.events_executed")),
      cancelledCounter(&registry.counter("sim.events_cancelled")),
      previousLogClock(detail::setSimClock(&currentTime))
{
}

Simulation::~Simulation()
{
    detail::setSimClock(previousLogClock);
}

EventId
Simulation::schedule(SimDuration delay, EventFn &&fn)
{
    scheduledCounter->add();
    return events.push(currentTime + delay, std::move(fn));
}

EventId
Simulation::scheduleAt(SimTime when, EventFn &&fn)
{
    TM_ASSERT(when >= currentTime, "cannot schedule an event in the past");
    scheduledCounter->add();
    return events.push(when, std::move(fn));
}

bool
Simulation::cancel(EventId id)
{
    const bool cancelled = events.cancel(id);
    if (cancelled)
        cancelledCounter->add();
    return cancelled;
}

const char *
eventTagName(EventTag tag)
{
    static constexpr const char *kNames[kEventTagCount] = {
        "client.send",     "client.timeout", "client.retry",
        "client.hedge",    "client.kernel",  "client.receive",
        "net.delivery",    "fault.apply",    "fault.stall_release",
        "fault.warmup_delay"};
    return kNames[static_cast<std::size_t>(tag)];
}

namespace {

obs::Counter &
tagCounter(obs::MetricsRegistry &registry, EventTag tag)
{
    // tmlint:cold: runs at each tag's first count; steady state takes
    // the counter pointer cached in Simulation::tagCounters
    return registry.counter(std::string("sim.events.") +
                            eventTagName(tag));
}

} // namespace

void
Simulation::countEvent(EventTag tag)
{
    obs::Counter *&counter = tagCounters[static_cast<std::size_t>(tag)];
    if (counter == nullptr)
        counter = &tagCounter(registry, tag);
    counter->add();
}

bool
Simulation::step()
{
    if (stopping || events.empty())
        return false;
    SimTime when = 0;
    EventFn fn = events.pop(when);
    TM_ASSERT(when >= currentTime, "event queue went backwards in time");
    currentTime = when;
    ++executed;
    executedCounter->add();
    fn();
    return true;
}

void
Simulation::run()
{
    stopping = false;
    while (step()) {
    }
}

void
Simulation::runUntil(SimTime deadline)
{
    stopping = false;
    while (!stopping && !events.empty() && events.nextTime() < deadline) {
        step();
    }
    if (!stopping && currentTime < deadline)
        currentTime = deadline;
}

} // namespace sim
} // namespace treadmill
