/**
 * @file
 * A single CPU core as a FIFO work queue.
 *
 * Interrupt handling and worker-thread request processing are both
 * submitted to cores as WorkItems; a busy core queues them, which is
 * where server-side queueing latency comes from.
 */

#ifndef TREADMILL_HW_CORE_H_
#define TREADMILL_HW_CORE_H_

#include <cstdint>
#include <functional>

#include "sim/simulation.h"
#include "util/inline_function.h"
#include "util/ring_buffer.h"
#include "util/types.h"

namespace treadmill {
namespace hw {

/** One unit of CPU work with its completion callback. */
struct WorkItem {
    /** Completion callback. The 48 bytes of inline capacity that
     *  sim::EventFn also uses cover the largest server-side closure
     *  (this + request pointer + a flag), so submitting work never
     *  allocates. Move-only, like the queue. */
    using DoneFn = util::InlineFunction<void(SimTime start, SimTime end), 48>;

    /** Frequency-scaled work (CPU cycles). */
    double cycles = 0.0;
    /** Frequency-independent stall time (memory, interconnect). */
    SimDuration fixedStall = 0;
    /** Whether Turbo may accelerate this item. */
    bool allowTurbo = true;
    /** Invoked when the item finishes executing. */
    DoneFn done;
};

/**
 * FIFO run queue for one core. The owning Machine supplies the
 * duration model (frequency, turbo, stalls) via a callback so Core
 * stays a pure queueing element.
 */
class Core
{
  public:
    /** Computes the wall-clock duration of an item started now. */
    using DurationFn =
        std::function<SimDuration(unsigned coreId, const WorkItem &)>;

    Core(sim::Simulation &sim, unsigned coreId, DurationFn durationOf);

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;
    Core(Core &&) = default;

    /** Enqueue @p item; starts immediately if the core is idle. */
    void submit(WorkItem item);

    /** True while an item is executing. */
    bool busy() const { return executing; }

    /** Items waiting behind the current one. */
    std::size_t queueDepth() const { return queue.size(); }

    /** Total busy nanoseconds so far. */
    SimDuration busyTime() const { return totalBusy; }

    /** Items completed so far. */
    std::uint64_t completed() const { return completedCount; }

    /** Busy fraction of elapsed simulation time. */
    double utilization() const;

  private:
    /** Begin executing the next queued item. */
    void startNext();

    sim::Simulation &sim;
    unsigned id;
    DurationFn durationOf;
    /** FIFO of waiting items; the ring retains capacity, so a warmed
     *  core queues and drains work without heap traffic (std::deque
     *  churns page-sized chunks). */
    util::RingBuffer<WorkItem> queue;
    bool executing = false;
    /** Completion state of the executing item, held here so the
     *  completion event captures only `this` (8 bytes, inline). One
     *  item executes at a time per core, so a single slot suffices. */
    WorkItem::DoneFn currentDone;
    SimTime currentStart = 0;
    SimDuration totalBusy = 0;
    std::uint64_t completedCount = 0;
};

} // namespace hw
} // namespace treadmill

#endif // TREADMILL_HW_CORE_H_
