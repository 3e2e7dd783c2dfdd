// tmlint:hot-path -- push/pop/cancel run once per simulated event;
// nothing here may allocate, throw, or touch std::function.
#include "sim/event_queue.h"

#include <algorithm>

#include "util/logging.h"

namespace treadmill {
namespace sim {

std::uint32_t
EventQueue::acquireSlot(EventFn &&fn)
{
    std::uint32_t idx;
    if (freeHead != kNil) {
        idx = freeHead;
        freeHead = slots[idx].next;
        slots[idx].next = kInUse;
    } else {
        idx = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    }
    slots[idx].fn = std::move(fn);
    return idx;
}

void
EventQueue::retireSlot(std::uint32_t slot)
{
    Slot &s = slots[slot];
    // Bumping the generation invalidates the outstanding id and the
    // heap entry in one store. Skip 0 on wrap so ids stay nonzero.
    if (++s.gen == 0)
        s.gen = 1;
    s.next = freeHead;
    freeHead = slot;
}

EventId
EventQueue::push(SimTime when, EventFn &&fn)
{
    const std::uint32_t slot = acquireSlot(std::move(fn));
    const HeapEntry entry{when, nextSeq++, slot, slots[slot].gen};
    heap.push_back(entry); // Placeholder; siftUp writes the real path.
    siftUp(heap.size() - 1, entry);
    ++liveCount;
    return (static_cast<EventId>(slots[slot].gen) << 32) | slot;
}

void
EventQueue::siftUp(std::size_t hole, HeapEntry entry)
{
    while (hole > 0) {
        const std::size_t parent = (hole - 1) >> 2;
        if (!earlier(entry, heap[parent]))
            break;
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = entry;
}

void
EventQueue::siftDown(std::size_t hole, HeapEntry entry)
{
    const std::size_t n = heap.size();
    const unsigned __int128 entryKey = orderKey(entry);
    for (;;) {
        const std::size_t first = 4 * hole + 1;
        if (first >= n)
            break;
        // Select the earliest child with conditional moves: the
        // winner of each comparison is data-dependent, so branching
        // here mispredicts roughly half the time.
        std::size_t best = first;
        unsigned __int128 bestKey = orderKey(heap[first]);
        const std::size_t last = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            const unsigned __int128 k = orderKey(heap[c]);
            const bool lt = k < bestKey;
            best = lt ? c : best;
            bestKey = lt ? k : bestKey;
        }
        if (bestKey >= entryKey)
            break;
        heap[hole] = heap[best];
        hole = best;
    }
    heap[hole] = entry;
}

void
EventQueue::removeTop()
{
    const HeapEntry tail = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftDown(0, tail);
}

void
EventQueue::dropDeadTop()
{
    while (!heap.empty() && !slotLive(heap.front()))
        removeTop();
}

SimTime
EventQueue::nextTime()
{
    dropDeadTop();
    TM_ASSERT(!heap.empty(), "nextTime() on an empty event queue");
    return heap.front().when;
}

EventFn
EventQueue::pop(SimTime &when)
{
    dropDeadTop();
    TM_ASSERT(!heap.empty(), "pop() on an empty event queue");
    const HeapEntry top = heap.front();
    when = top.when;
    // Moving out leaves the slot's callback empty, so no extra
    // destroy is needed before the slot is recycled.
    EventFn fn = std::move(slots[top.slot].fn);
    retireSlot(top.slot);
    --liveCount;
    removeTop();
    return fn;
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t slot = static_cast<std::uint32_t>(id);
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots.size())
        return false;
    Slot &s = slots[slot];
    if (s.next != kInUse || s.gen != gen)
        return false;
    // Destroy the callback now: whatever it captured must not live on
    // until the stale heap entry drains.
    s.fn = EventFn();
    retireSlot(slot);
    --liveCount;
    // The heap entry stays behind and is dropped lazily when it
    // reaches the top, unless the dead entries now outnumber the
    // live ones by the slack.
    if (heap.size() - liveCount > liveCount + kCompactSlack)
        compact();
    return true;
}

void
EventQueue::compact()
{
    heap.erase(std::remove_if(heap.begin(), heap.end(),
                              [this](const HeapEntry &e) {
                                  return !slotLive(e);
                              }),
               heap.end());
    // Floyd's heapify: sift down every parent, last one first.
    if (heap.size() > 1) {
        for (std::size_t i = (heap.size() - 2) / 4 + 1; i-- > 0;)
            siftDown(i, heap[i]);
    }
}

void
EventQueue::clear()
{
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        if (slots[i].next == kInUse) {
            slots[i].fn = EventFn();
            retireSlot(i);
        }
    }
    // Generations survive clear(), so ids issued before the clear can
    // never accidentally cancel events pushed afterwards.
    heap.clear();
    liveCount = 0;
}

} // namespace sim
} // namespace treadmill
