/** @file Unit tests for the size-only LRU key-value store. */

#include "server/kvstore.h"

#include <gtest/gtest.h>

#include <vector>

namespace treadmill {
namespace server {
namespace {

TEST(KvStoreTest, GetMissOnEmptyStore)
{
    KvStore kv;
    EXPECT_FALSE(kv.find(404).has_value());
    EXPECT_EQ(kv.misses(), 1u);
}

TEST(KvStoreTest, SetThenGetRoundTrips)
{
    KvStore kv;
    kv.set(1, 5);
    EXPECT_EQ(kv.find(1), 5u);
    EXPECT_EQ(kv.hits(), 1u);
    EXPECT_EQ(kv.sets(), 1u);
}

TEST(KvStoreTest, OverwriteReplacesValue)
{
    KvStore kv;
    kv.set(7, 3);
    kv.set(7, 5);
    EXPECT_EQ(kv.find(7), 5u);
    EXPECT_EQ(kv.size(), 1u);
    EXPECT_EQ(kv.bytesStored(), 5u);
}

TEST(KvStoreTest, EmptyValueIsAHit)
{
    KvStore kv;
    kv.set(7, 0);
    EXPECT_EQ(kv.find(7), 0u);
}

TEST(KvStoreTest, TracksBytesStored)
{
    KvStore kv;
    kv.set(1, 100);
    kv.set(2, 50);
    EXPECT_EQ(kv.bytesStored(), 150u);
}

TEST(KvStoreTest, EvictsLeastRecentlyUsed)
{
    KvStore kv(250);
    kv.set(1, 100);
    kv.set(2, 100);
    // Touch 1 so 2 becomes LRU.
    kv.find(1);
    kv.set(3, 100); // forces eviction
    EXPECT_TRUE(kv.find(1).has_value());
    EXPECT_FALSE(kv.find(2).has_value());
    EXPECT_TRUE(kv.find(3).has_value());
    EXPECT_EQ(kv.evictions(), 1u);
    EXPECT_LE(kv.bytesStored(), 250u);
}

TEST(KvStoreTest, UnboundedStoreNeverEvicts)
{
    KvStore kv(0);
    for (std::uint64_t i = 0; i < 1000; ++i)
        kv.set(i, 100);
    EXPECT_EQ(kv.size(), 1000u);
    EXPECT_EQ(kv.evictions(), 0u);
}

TEST(KvStoreTest, SetUpdatesRecency)
{
    KvStore kv(250);
    kv.set(1, 100);
    kv.set(2, 100);
    kv.set(1, 100); // 1 most recent again
    kv.set(3, 100);
    EXPECT_TRUE(kv.find(1).has_value());
    EXPECT_FALSE(kv.find(2).has_value());
}

TEST(KvStoreTest, ValueLargerThanCapacityEvictsItself)
{
    KvStore kv(250);
    kv.set(1, 100);
    kv.set(2, 300);
    EXPECT_EQ(kv.size(), 0u);
    EXPECT_EQ(kv.bytesStored(), 0u);
    EXPECT_EQ(kv.evictions(), 2u);
    // Evicted slots are reused.
    kv.set(3, 100);
    EXPECT_EQ(kv.find(3), 100u);
    EXPECT_EQ(kv.size(), 1u);
}

TEST(KvStoreTest, KeysByRecencyListsMostRecentFirst)
{
    KvStore kv;
    kv.set(1, 10);
    kv.set(2, 10);
    kv.set(3, 10);
    kv.find(1);
    EXPECT_EQ(kv.keysByRecency(), (std::vector<std::uint64_t>{1, 3, 2}));
}

TEST(KvStoreTest, ManyKeysStressConsistency)
{
    KvStore kv;
    for (std::uint32_t i = 0; i < 5000; ++i)
        kv.set(i, i);
    for (std::uint32_t i = 0; i < 5000; ++i) {
        const auto size = kv.find(i);
        ASSERT_TRUE(size.has_value());
        EXPECT_EQ(*size, i);
    }
}

} // namespace
} // namespace server
} // namespace treadmill
