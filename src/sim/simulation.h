/**
 * @file
 * The discrete-event simulation driver.
 *
 * All Treadmill experiments run inside a Simulation: load-tester control
 * loops, network links, NIC interrupt handling, and server worker threads
 * are all expressed as events against a shared virtual clock.
 */

#ifndef TREADMILL_SIM_SIMULATION_H_
#define TREADMILL_SIM_SIMULATION_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "util/types.h"

namespace treadmill {
namespace sim {

/** The kinds of scheduled event counted under "sim.events.<tag>". */
enum class EventTag : std::uint8_t {
    ClientSend,
    ClientTimeout,
    ClientRetry,
    ClientHedge,
    ClientKernel,
    ClientReceive,
    NetDelivery,
    FaultApply,
    FaultStallRelease,
    FaultWarmupDelay,
};

/** Number of EventTag values. */
constexpr std::size_t kEventTagCount =
    static_cast<std::size_t>(EventTag::FaultWarmupDelay) + 1;

/** The dotted name of @p tag ("client.send", "net.delivery"). */
const char *eventTagName(EventTag tag);

/**
 * Owns the virtual clock and the pending-event set and dispatches events
 * in timestamp order.
 *
 * Each Simulation also owns a MetricsRegistry: every component built on
 * this simulation registers its metrics here, so telemetry is
 * seed-isolated exactly like the rest of the mutable run state and the
 * parallel-runner determinism invariant (DESIGN.md §5) holds with
 * metrics enabled. While alive, the Simulation is this thread's
 * logging clock: log lines carry the simulated timestamp.
 */
class Simulation
{
  public:
    Simulation();
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current virtual time. */
    SimTime now() const { return currentTime; }

    /** Schedule @p fn to run @p delay after the current time. */
    EventId schedule(SimDuration delay, EventFn &&fn);

    /** Schedule @p fn at the absolute virtual time @p when (>= now). */
    EventId scheduleAt(SimTime when, EventFn &&fn);

    /** Cancel a previously scheduled event. */
    bool cancel(EventId id);

    /**
     * Execute the earliest pending event.
     *
     * @return false when no events remain or stop() was requested.
     */
    bool step();

    /** Run until the event set is exhausted or stop() is called. */
    void run();

    /**
     * Run until virtual time reaches @p deadline.
     *
     * Events at exactly @p deadline do not fire; the clock is left at
     * @p deadline (or at the stop/exhaustion point, whichever is first).
     */
    void runUntil(SimTime deadline);

    /** Request that run()/runUntil() return after the current event. */
    void stop() { stopping = true; }

    /** True if stop() was called since the last run. */
    bool stopped() const { return stopping; }

    /** Number of events dispatched so far. */
    std::uint64_t eventsExecuted() const { return executed; }

    /** Number of events currently pending. */
    std::size_t pendingEvents() const { return events.size(); }

    /** This simulation's metrics registry. */
    obs::MetricsRegistry &metrics() { return registry; }
    const obs::MetricsRegistry &metrics() const { return registry; }

    /**
     * Count one scheduled event of kind @p tag under
     * "sim.events.<eventTagName(tag)>"; the counter is created at the
     * tag's first count.
     */
    void countEvent(EventTag tag);

  private:
    EventQueue events;
    SimTime currentTime = 0;
    std::uint64_t executed = 0;
    bool stopping = false;

    obs::MetricsRegistry registry;
    obs::Counter *scheduledCounter = nullptr;
    obs::Counter *executedCounter = nullptr;
    obs::Counter *cancelledCounter = nullptr;
    /** Per-tag event counters, null until the tag's first count. */
    std::array<obs::Counter *, kEventTagCount> tagCounters{};
    /** The logging clock this Simulation replaced, restored on exit. */
    const std::uint64_t *previousLogClock = nullptr;
};

} // namespace sim
} // namespace treadmill

#endif // TREADMILL_SIM_SIMULATION_H_
