/** @file Unit tests for the event queue. */

#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace treadmill {
namespace sim {
namespace {

TEST(EventQueueTest, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder)
{
    EventQueue q;
    std::vector<int> fired;
    q.push(30, [&] { fired.push_back(3); });
    q.push(10, [&] { fired.push_back(1); });
    q.push(20, [&] { fired.push_back(2); });

    SimTime when = 0;
    while (!q.empty())
        q.pop(when)();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(when, 30u);
}

TEST(EventQueueTest, TieBreaksByInsertionOrder)
{
    EventQueue q;
    std::vector<int> fired;
    for (int i = 0; i < 10; ++i)
        q.push(100, [&fired, i] { fired.push_back(i); });

    SimTime when = 0;
    while (!q.empty())
        q.pop(when)();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, NextTimeReportsEarliest)
{
    EventQueue q;
    q.push(50, [] {});
    q.push(20, [] {});
    EXPECT_EQ(q.nextTime(), 20u);
}

TEST(EventQueueTest, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    const EventId id = q.push(10, [&] { ran = true; });
    q.push(20, [] {});

    EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(q.size(), 1u);

    SimTime when = 0;
    q.pop(when)();
    EXPECT_EQ(when, 20u);
    EXPECT_FALSE(ran);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelUnknownIdFails)
{
    EventQueue q;
    EXPECT_FALSE(q.cancel(0));
    EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueueTest, DoubleCancelFails)
{
    EventQueue q;
    const EventId id = q.push(10, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelAfterFireFails)
{
    EventQueue q;
    const EventId id = q.push(10, [] {});
    SimTime when = 0;
    q.pop(when)();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelledTopIsSkippedByNextTime)
{
    EventQueue q;
    const EventId early = q.push(5, [] {});
    q.push(15, [] {});
    q.cancel(early);
    EXPECT_EQ(q.nextTime(), 15u);
}

TEST(EventQueueTest, ClearRemovesEverything)
{
    EventQueue q;
    q.push(1, [] {});
    q.push(2, [] {});
    q.clear();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelAfterClearFails)
{
    EventQueue q;
    const EventId id = q.push(10, [] {});
    q.clear();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelInterleavedWithPops)
{
    // The pending-id set must track exactly the live entries through
    // pushes, pops, and lazy dead-top drops.
    EventQueue q;
    std::vector<EventId> ids;
    for (std::uint64_t i = 0; i < 100; ++i)
        ids.push_back(q.push(i, [] {}));

    // Cancel every third event.
    std::size_t cancelled = 0;
    for (std::size_t i = 0; i < ids.size(); i += 3) {
        EXPECT_TRUE(q.cancel(ids[i]));
        ++cancelled;
    }
    EXPECT_EQ(q.size(), ids.size() - cancelled);

    // Pop half of the remainder; popped ids are no longer cancellable.
    SimTime when = 0;
    std::size_t popped = 0;
    while (popped < 30) {
        q.pop(when);
        ++popped;
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const bool wasCancelled = i % 3 == 0;
        if (wasCancelled) {
            EXPECT_FALSE(q.cancel(ids[i])) << "id " << ids[i];
        }
    }
    EXPECT_EQ(q.size(), ids.size() - cancelled - popped);

    // Everything left still pops in time order.
    SimTime prev = when;
    while (!q.empty()) {
        q.pop(when);
        EXPECT_GE(when, prev);
        prev = when;
    }
}

TEST(EventQueueTest, CancelManyPendingStaysConsistent)
{
    // 10^4 pending "timeout" events cancelled in scrambled order; the
    // old implementation scanned the heap per cancel (quadratic), the
    // hash-set version must stay exact at any scale.
    EventQueue q;
    std::vector<EventId> ids;
    const std::uint64_t n = 10000;
    for (std::uint64_t i = 0; i < n; ++i)
        ids.push_back(q.push((i * 7919) % 1000, [] {}));
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_TRUE(q.cancel(ids[(i * 6151) % n]));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.cancel(ids[0]));
}

TEST(EventQueueTest, ManyEventsStressOrder)
{
    EventQueue q;
    // Push times in a scrambled but deterministic pattern.
    for (std::uint64_t i = 0; i < 1000; ++i)
        q.push((i * 7919) % 1000, [] {});
    SimTime prev = 0;
    SimTime when = 0;
    while (!q.empty()) {
        q.pop(when);
        EXPECT_GE(when, prev);
        prev = when;
    }
}

} // namespace
} // namespace sim
} // namespace treadmill
