/**
 * @file
 * The pending-event set for the discrete-event simulation engine.
 */
// tmlint:hot-path -- every line here is on the steady-state event path
// (PR 4's zero-allocation property is enforced statically from here).

#ifndef TREADMILL_SIM_EVENT_QUEUE_H_
#define TREADMILL_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "util/inline_function.h"
#include "util/types.h"

namespace treadmill {
namespace sim {

/**
 * Callback executed when an event fires.
 *
 * A small-buffer-optimized move-only callable: captures up to 48
 * bytes (a `this` pointer plus a request pointer or a couple of ids --
 * every closure on the steady-state request path) are stored inline,
 * so scheduling an event performs no heap allocation. Larger captures
 * transparently fall back to the heap.
 */
using InlineEvent = util::InlineFunction<void(), 48>;
using EventFn = InlineEvent;

/** Identifies a scheduled event so it can be cancelled. */
using EventId = std::uint64_t;

/**
 * A 4-ary implicit min-heap of timestamped events with
 * generation-stamped slots.
 *
 * Ties are broken by insertion sequence number, so two events
 * scheduled for the same instant always fire in the order they were
 * scheduled. This (when, seq) total order is what makes simulations
 * reproducible, and it is identical to the order the previous
 * binary-heap implementation produced.
 *
 * Layout: the heap itself holds only 24-byte {when, seq, slot, gen}
 * entries (4-ary so sift-down touches one cache line of children per
 * level); callbacks live in a side table of recycled slots. An
 * EventId encodes (generation << 32 | slot); cancel() is a bounds
 * check plus a generation compare -- no hash lookups -- and bumps the
 * slot generation so the heap entry is recognized as dead when it
 * reaches the top. The callback is destroyed eagerly on cancel.
 *
 * Cancelled timeouts mostly lie far beyond the heap's top, so their
 * entries would otherwise pile up and deepen every sift. Once the dead
 * entries outnumber the live ones by kCompactSlack, cancel() rebuilds
 * the heap from its live entries alone. Every (when, seq) key is
 * unique, so pop order, ids and size() are unaffected.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Insert an event firing at @p when; returns its (nonzero) id. */
    EventId push(SimTime when, EventFn &&fn);

    /** True when no live events remain. */
    bool empty() const { return liveCount == 0; }

    /** Number of live (non-cancelled) events. */
    std::size_t size() const { return liveCount; }

    /** Heap entries, live and cancelled: a cancelled entry stays until
     *  it surfaces or the heap is compacted. */
    std::size_t heapEntries() const { return heap.size(); }

    /** Timestamp of the earliest live event. Queue must be non-empty. */
    SimTime nextTime();

    /**
     * Remove and return the earliest live event's callback.
     *
     * @param when Receives the event's timestamp.
     */
    EventFn pop(SimTime &when);

    /**
     * Cancel a pending event.
     *
     * The callback (and anything it captured) is destroyed before
     * this returns. @return true if the event was pending and is now
     * cancelled; false if it already fired or was already cancelled.
     */
    bool cancel(EventId id);

    /** Drop every pending event (callbacks destroyed immediately). */
    void clear();

  private:
    /** Heap entries are 24 bytes; the callback lives in slots[]. */
    struct HeapEntry {
        SimTime when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    struct Slot {
        EventFn fn;
        /** Matches the heap entry / id while live; bumped on retire.
         *  Starts at 1 and skips 0 on wrap so ids are never 0. */
        std::uint32_t gen = 1;
        /** kInUse while live, else next index in the free list. */
        std::uint32_t next = kInUse;
    };

    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr std::uint32_t kInUse = 0xfffffffeu;
    /** Dead entries tolerated beyond the live count before cancel()
     *  compacts the heap. */
    static constexpr std::size_t kCompactSlack = 64;

    /** (when, seq) lexicographic order as one 128-bit compare: the
     *  composed key makes best-child selection branchless (cmov), and
     *  sift comparisons on a warm heap are branch-mispredict bound. */
    static unsigned __int128
    orderKey(const HeapEntry &e)
    {
        return (static_cast<unsigned __int128>(e.when) << 64) | e.seq;
    }

    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        return orderKey(a) < orderKey(b);
    }

    bool
    slotLive(const HeapEntry &e) const
    {
        const Slot &s = slots[e.slot];
        return s.next == kInUse && s.gen == e.gen;
    }

    std::uint32_t acquireSlot(EventFn &&fn);
    void retireSlot(std::uint32_t slot);
    void siftUp(std::size_t hole, HeapEntry entry);
    void siftDown(std::size_t hole, HeapEntry entry);
    void removeTop();
    /** Drop cancelled entries off the top of the heap. */
    void dropDeadTop();
    /** Rebuild the heap from its live entries. */
    void compact();

    std::vector<HeapEntry> heap;
    std::vector<Slot> slots;
    std::uint32_t freeHead = kNil;
    std::uint64_t nextSeq = 0;
    std::size_t liveCount = 0;
};

} // namespace sim
} // namespace treadmill

#endif // TREADMILL_SIM_EVENT_QUEUE_H_
