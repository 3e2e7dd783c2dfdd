/** @file Consistent-hash ring properties: deterministic construction,
 *  near-even key distribution, and replica-walk invariants. */

#include "lb/hash_ring.h"

#include <gtest/gtest.h>

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
    // Asking for more replicas than backends caps at the backend count.
    ring.replicas(HashRing::hashKeyId(7), backends + 3, reps);
    EXPECT_EQ(reps.size(), backends);
}

} // namespace
} // namespace lb
} // namespace treadmill
