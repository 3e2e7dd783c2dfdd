/** @file Unit tests for the open-addressing uint64-keyed flat map. */

#include "util/flat_map.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <unordered_map>

#include "util/rng.h"

namespace treadmill {
namespace util {
namespace {

TEST(FlatMapTest, InsertFindErase)
{
    FlatU64Map<std::uint64_t> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), 0u); // no storage until the first insert
    EXPECT_EQ(m.find(5), nullptr);
    EXPECT_FALSE(m.erase(5));
    m.insertOrAssign(5, 50);
    m.insertOrAssign(6, 60);
    ASSERT_NE(m.find(5), nullptr);
    EXPECT_EQ(*m.find(5), 50u);
    EXPECT_EQ(*m.find(6), 60u);
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_EQ(m.size(), 2u);

    EXPECT_TRUE(m.erase(5));
    EXPECT_EQ(m.find(5), nullptr);
    EXPECT_FALSE(m.erase(5));
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, AssignOverwrites)
{
    FlatU64Map<int> m;
    m.insertOrAssign(1, 10);
    m.insertOrAssign(1, 11);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(*m.find(1), 11);
}

TEST(FlatMapTest, ClearKeepsCapacity)
{
    FlatU64Map<int> m;
    for (std::uint64_t i = 0; i < 100; ++i)
        m.insertOrAssign(i, static_cast<int>(i));
    const auto cap = m.capacity();
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.find(50), nullptr);
}

TEST(FlatMapTest, SteadyStateWindowDoesNotGrow)
{
    // The packet-capture usage pattern: a sliding window of in-flight
    // ids, one insert and one erase per request. Once sized for the
    // window, capacity must never change again.
    FlatU64Map<std::uint64_t> m;
    m.reserve(512);
    const auto cap = m.capacity();
    for (std::uint64_t seq = 0; seq < 100000; ++seq) {
        m.insertOrAssign(seq, seq * 3);
        if (seq >= 512) {
            EXPECT_TRUE(m.erase(seq - 512));
        }
    }
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.size(), 512u);
}

TEST(FlatMapTest, RecordValuesSurviveRehashAndBackwardShift)
{
    // Values may be whole records (the client's pending table holds a
    // request prototype per entry): they copy on rehash and backward
    // shift and are mutable through find().
    struct Record {
        std::uint64_t id = 0;
        std::array<std::uint32_t, 16> words{};
    };
    FlatU64Map<Record> m;
    for (std::uint64_t i = 0; i < 200; ++i) { // several rehashes
        Record r;
        r.id = i;
        r.words.fill(static_cast<std::uint32_t>(i));
        m.insertOrAssign(i, r);
    }

    m.find(7)->words[3] = 70;

    // Erasing every other key shifts later chain members back into
    // the holes; every survivor keeps its whole record.
    for (std::uint64_t i = 0; i < 200; i += 2)
        ASSERT_TRUE(m.erase(i));
    for (std::uint64_t i = 1; i < 200; i += 2) {
        const Record *r = m.find(i);
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->id, i);
        const auto v = static_cast<std::uint32_t>(i);
        EXPECT_EQ(r->words[0], v);
        EXPECT_EQ(r->words[3], i == 7 ? 70u : v);
        EXPECT_EQ(r->words[15], v);
    }
    EXPECT_EQ(m.size(), 100u);
}

TEST(FlatMapTest, MatchesReferenceOverRandomOps)
{
    FlatU64Map<std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(0xab5u);

    for (int op = 0; op < 200000; ++op) {
        const std::uint64_t key = rng.next() % 4096; // force collisions
        const double r = rng.nextDouble();
        if (r < 0.5) {
            const std::uint64_t v = rng.next();
            m.insertOrAssign(key, v);
            ref[key] = v;
        } else if (r < 0.8) {
            EXPECT_EQ(m.erase(key), ref.erase(key) == 1);
        } else {
            const auto *found = m.find(key);
            const auto it = ref.find(key);
            if (it == ref.end()) {
                EXPECT_EQ(found, nullptr);
            } else {
                ASSERT_NE(found, nullptr);
                EXPECT_EQ(*found, it->second);
            }
        }
        ASSERT_EQ(m.size(), ref.size());
    }

    // Full cross-check at the end.
    for (const auto &[k, v] : ref) {
        const auto *found = m.find(k);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, v);
    }
}

} // namespace
} // namespace util
} // namespace treadmill
