/** @file Consistent-hash ring properties: deterministic construction,
 *  near-even key distribution, minimal remapping on membership change,
 *  and replica-walk invariants. */

#include "lb/hash_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "util/error.h"

namespace treadmill {
namespace lb {
namespace {

/** Owners of key ids 0..keys-1 under @p ring. */
std::vector<std::uint32_t>
ownerMap(const HashRing &ring, std::size_t keys)
{
    std::vector<std::uint32_t> owners;
    owners.reserve(keys);
    for (std::size_t k = 0; k < keys; ++k)
        owners.push_back(ring.lookup(HashRing::hashKeyId(k)));
    return owners;
}

TEST(HashRingTest, HashKeyIdHashesTheWireKeyBytes)
{
    // Ring placement must not move when requests carry key ids: the
    // id hash is the byte hash of the "key:<n>" string at every digit
    // count, from one digit to UINT64_MAX's twenty.
    const std::uint64_t ids[] = {0, 9, 10, 99999, std::uint64_t{1} << 32,
                                 std::numeric_limits<std::uint64_t>::max()};
    for (const std::uint64_t n : ids) {
        EXPECT_EQ(HashRing::hashKeyId(n),
                  HashRing::hashKey("key:" + std::to_string(n)))
            << "key id " << n;
    }
}

TEST(HashRingTest, RejectsDegenerateShapes)
{
    EXPECT_THROW(HashRing(0, 128), ConfigError);
    EXPECT_THROW(HashRing(4, 0), ConfigError);
}

TEST(HashRingTest, DeterministicAcrossInstances)
{
    HashRing a(8, 64);
    HashRing b(8, 64);
    EXPECT_EQ(a.pointCount(), b.pointCount());
    EXPECT_EQ(ownerMap(a, 2000), ownerMap(b, 2000));
}

TEST(HashRingTest, KeysSpreadNearEvenlyAcrossBackends)
{
    const std::uint32_t backends = 8;
    const std::size_t keys = 100000;
    HashRing ring(backends, 128);
    std::vector<std::size_t> perBackend(backends, 0);
    for (std::uint32_t owner : ownerMap(ring, keys))
        ++perBackend[owner];

    const double mean =
        static_cast<double>(keys) / static_cast<double>(backends);
    for (std::uint32_t b = 0; b < backends; ++b) {
        // 128 vnodes bound the spread well inside a factor of two.
        EXPECT_GT(static_cast<double>(perBackend[b]), 0.5 * mean)
            << "backend " << b;
        EXPECT_LT(static_cast<double>(perBackend[b]), 1.75 * mean)
            << "backend " << b;
    }
}

TEST(HashRingTest, RemovalRemapsOnlyTheRemovedBackendsKeys)
{
    const std::uint32_t backends = 8;
    const std::size_t keys = 50000;
    HashRing ring(backends, 128);
    const auto before = ownerMap(ring, keys);

    ring.removeBackend(3);
    EXPECT_EQ(ring.liveBackends(), backends - 1);
    const auto after = ownerMap(ring, keys);

    std::size_t moved = 0;
    std::size_t ownedByRemoved = 0;
    for (std::size_t k = 0; k < keys; ++k) {
        if (before[k] == 3) {
            ++ownedByRemoved;
            EXPECT_NE(after[k], 3u); // its keys must move...
        } else {
            // ...and every other key keeps its owner: consistent
            // hashing's minimal-disruption property.
            EXPECT_EQ(after[k], before[k]) << "key " << k;
        }
        moved += before[k] != after[k] ? 1 : 0;
    }
    EXPECT_EQ(moved, ownedByRemoved);
    // The removed backend owned about 1/N of the space; allow slack
    // for hash variance.
    const double share = static_cast<double>(moved) /
                         static_cast<double>(keys);
    EXPECT_GT(share, 0.5 / backends);
    EXPECT_LT(share, 2.0 / backends);
}

TEST(HashRingTest, ReAddRestoresTheExactPriorMapping)
{
    HashRing ring(6, 64);
    const auto before = ownerMap(ring, 5000);
    ring.removeBackend(2);
    ring.addBackend(2);
    EXPECT_EQ(ownerMap(ring, 5000), before);
    EXPECT_EQ(ring.liveBackends(), 6u);
}

TEST(HashRingTest, RefusesToRemoveTheLastBackend)
{
    HashRing ring(2, 32);
    ring.removeBackend(0);
    EXPECT_THROW(ring.removeBackend(1), ConfigError);
}

TEST(HashRingTest, ReplicaWalkYieldsDistinctBackendsPrimaryFirst)
{
    const std::uint32_t backends = 5;
    HashRing ring(backends, 64);
    std::vector<std::uint32_t> reps;
    for (std::size_t k = 0; k < 2000; ++k) {
        const std::uint64_t h = HashRing::hashKeyId(k);
        ring.replicas(h, 3, reps);
        ASSERT_EQ(reps.size(), 3u);
        EXPECT_EQ(reps.front(), ring.lookup(h));
        EXPECT_EQ(std::set<std::uint32_t>(reps.begin(), reps.end())
                      .size(),
                  reps.size());
    }
    // Asking for more replicas than live backends caps at live count.
    ring.replicas(HashRing::hashKeyId(7), backends + 3, reps);
    EXPECT_EQ(reps.size(), backends);
}

TEST(HashRingTest, ReplicasSkipRemovedBackends)
{
    HashRing ring(4, 64);
    ring.removeBackend(1);
    std::vector<std::uint32_t> reps;
    for (std::size_t k = 0; k < 2000; ++k) {
        ring.replicas(HashRing::hashKeyId(k), 3, reps);
        EXPECT_EQ(std::find(reps.begin(), reps.end(), 1u), reps.end());
    }
}

} // namespace
} // namespace lb
} // namespace treadmill
