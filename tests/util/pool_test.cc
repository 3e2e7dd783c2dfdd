/** @file Unit tests for the free-list arenas (Pool and RawPool). */

#include "util/pool.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace treadmill {
namespace util {
namespace {

struct Tracked {
    static int liveInstances;
    int value = 0;

    Tracked() { ++liveInstances; }
    explicit Tracked(int v) : value(v) { ++liveInstances; }
    ~Tracked() { --liveInstances; }
};

int Tracked::liveInstances = 0;

/** A Pool holds only trivially destructible objects. */
struct Plain {
    int value = 0;
};

TEST(PoolTest, MakeConstructsAndRecycles)
{
    Pool<Plain> pool;
    Plain *a = pool.make(Plain{7});
    EXPECT_EQ(a->value, 7);
    EXPECT_EQ(pool.inUse(), 1u);
    pool.release(a);
    EXPECT_EQ(pool.inUse(), 0u);
    // The released block must be recycled, not freshly carved.
    Plain *b = pool.make(Plain{9});
    EXPECT_EQ(b, a);
    EXPECT_EQ(b->value, 9);
    EXPECT_EQ(pool.slabCount(), 1u);
}

TEST(PoolTest, SteadyStateServesFromFreeList)
{
    Pool<Plain> pool;
    // Warm: hold a working set, then release it.
    std::vector<Plain *> held;
    for (int i = 0; i < 200; ++i)
        held.push_back(pool.make(Plain{i}));
    for (Plain *p : held)
        pool.release(p);
    const std::size_t slabsAfterWarm = pool.slabCount();
    // Steady state: the same working set size must be served entirely
    // from the free list.
    held.clear();
    for (int i = 0; i < 200; ++i)
        held.push_back(pool.make(Plain{i}));
    EXPECT_EQ(pool.slabCount(), slabsAfterWarm);
    EXPECT_EQ(pool.inUse(), 200u);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(held[static_cast<std::size_t>(i)]->value, i);
}

TEST(PoolTest, ReleasingTwicePanics)
{
    Pool<Plain> pool;
    Plain *a = pool.make();
    pool.release(a);
    EXPECT_DEATH(pool.release(a), "not live");
    // A block of another arena is not live in this one either.
    Pool<Plain> other;
    Plain *b = other.make();
    EXPECT_DEATH(pool.release(b), "not live");
}

TEST(RawPoolTest, AcquireGetRelease)
{
    RawPool<std::string> pool;
    const auto a = pool.acquire(std::string("hello"));
    const auto b = pool.acquire(std::string("world"));
    EXPECT_EQ(pool.get(a), "hello");
    EXPECT_EQ(pool.get(b), "world");
    EXPECT_EQ(pool.liveCount(), 2u);
    pool.release(a);
    EXPECT_EQ(pool.liveCount(), 1u);
    pool.release(b);
    EXPECT_EQ(pool.liveCount(), 0u);
}

TEST(RawPoolTest, SlotsAreRecycled)
{
    RawPool<int> pool;
    const auto a = pool.acquire(1);
    pool.release(a);
    const auto b = pool.acquire(2);
    EXPECT_EQ(b, a); // most-recently-freed slot is reused
    EXPECT_EQ(pool.get(b), 2);
}

TEST(RawPoolTest, ReferencesStayValidAcrossGrowth)
{
    RawPool<int> pool;
    const auto first = pool.acquire(42);
    int *p = &pool.get(first);
    // Grow well past several slabs; slabs are stable so the reference
    // must not move.
    for (int i = 0; i < 1000; ++i)
        pool.acquire(i);
    EXPECT_EQ(p, &pool.get(first));
    EXPECT_EQ(*p, 42);
}

TEST(RawPoolTest, DestructorDestroysLiveSlots)
{
    Tracked::liveInstances = 0;
    {
        RawPool<Tracked> pool;
        pool.acquire(1);
        pool.acquire(2);
        const auto c = pool.acquire(3);
        pool.release(c);
        EXPECT_EQ(Tracked::liveInstances, 2);
    }
    EXPECT_EQ(Tracked::liveInstances, 0);
}

TEST(RawPoolTest, AggregateInitSupportsMultiFieldStructs)
{
    struct Pair {
        int a;
        double b;
    };
    RawPool<Pair> pool;
    const auto idx = pool.acquire(3, 2.5);
    EXPECT_EQ(pool.get(idx).a, 3);
    EXPECT_DOUBLE_EQ(pool.get(idx).b, 2.5);
}

} // namespace
} // namespace util
} // namespace treadmill
