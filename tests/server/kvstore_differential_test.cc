/**
 * @file
 * Differential test: the size-only, integer-keyed KvStore against the
 * string-keyed store of real bytes it replaced (reference_kvstore.h).
 *
 * Seeded op sequences -- Zipf or uniform key ids, value sizes from
 * 1 B to 64 KiB, an unbounded store and two byte budgets that force
 * evictions -- run through both stores. Every op must give the same
 * hit/miss outcome, the same returned size and the same evicted keys
 * in the same order, and after every op both stores must agree on
 * their LRU order, size, stored bytes and counters.
 */

#include "server/kvstore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "reference_kvstore.h"
#include "util/random_variates.h"
#include "util/rng.h"

namespace treadmill {
namespace server {
namespace {

constexpr std::uint64_t kKeySpace = 1024;
constexpr int kOps = 12000;
constexpr std::uint32_t kMaxValueBytes = 64 * 1024;

struct Case {
    const char *name;
    double zipfSkew;        ///< 0 = uniform key ids.
    std::uint64_t capacity; ///< Byte budget; 0 = unbounded.
    bool spreadIds;         ///< Scatter ids over the full 64-bit range.
};

std::string
stringKey(std::uint64_t keyId)
{
    return "key:" + std::to_string(keyId);
}

std::vector<std::uint64_t>
idsOf(const std::vector<std::string> &keys)
{
    std::vector<std::uint64_t> ids;
    ids.reserve(keys.size());
    for (const std::string &key : keys)
        ids.push_back(std::stoull(key.substr(4)));
    return ids;
}

/** 1 B and 64 KiB each 1/32 of the time, else log-uniform between. */
std::uint32_t
drawValueBytes(Rng &rng)
{
    const double u = rng.nextDouble();
    if (u < 1.0 / 32.0)
        return 1;
    if (u < 2.0 / 32.0)
        return kMaxValueBytes;
    // exp of [0, ln 64Ki) lies in [1, 64 KiB).
    const double bytes =
        std::exp(rng.nextDouble() * std::log(double{kMaxValueBytes}));
    return static_cast<std::uint32_t>(bytes);
}

void
replay(const Case &c, std::uint64_t seed)
{
    SCOPED_TRACE(c.name);
    KvStore store(c.capacity);
    ReferenceKvStore ref(c.capacity);
    Rng rng(seed);
    std::optional<Zipf> zipf;
    if (c.zipfSkew > 0.0)
        zipf.emplace(kKeySpace, c.zipfSkew);

    for (int op = 0; op < kOps; ++op) {
        std::uint64_t id = zipf ? zipf->sample(rng) : rng.nextBelow(kKeySpace);
        if (c.spreadIds)
            id *= 0x9e3779b97f4a7c15ull; // a bijection on 64 bits
        const std::string key = stringKey(id);

        if (rng.nextDouble() < 0.5) {
            const std::uint32_t bytes = drawValueBytes(rng);
            const std::vector<std::uint64_t> before = store.keysByRecency();
            store.set(id, bytes);
            ref.set(key, std::string(bytes, 'v'));

            // Before evicting, the set key leads the LRU order; the
            // store evicts from the other end, so the survivors are a
            // prefix of that order and the evicted keys, LRU first,
            // are the rest reversed.
            std::vector<std::uint64_t> order{id};
            for (std::uint64_t k : before) {
                if (k != id)
                    order.push_back(k);
            }
            const std::vector<std::uint64_t> after = store.keysByRecency();
            ASSERT_LE(after.size(), order.size()) << "op " << op;
            ASSERT_TRUE(std::equal(after.begin(), after.end(), order.begin()))
                << "op " << op;
            const auto kept =
                order.begin() + static_cast<std::ptrdiff_t>(after.size());
            std::vector<std::uint64_t> evicted(kept, order.end());
            std::reverse(evicted.begin(), evicted.end());
            ASSERT_EQ(evicted, idsOf(ref.takeEvicted())) << "op " << op;
        } else {
            std::string value;
            const bool refHit = ref.get(key, &value);
            const std::optional<std::uint32_t> size = store.find(id);
            ASSERT_EQ(size.has_value(), refHit) << "op " << op;
            if (refHit) {
                ASSERT_EQ(*size, value.size()) << "op " << op;
            }
            ASSERT_TRUE(ref.takeEvicted().empty()) << "op " << op;
        }

        ASSERT_EQ(store.keysByRecency(), idsOf(ref.keysByRecency()))
            << "op " << op;
        ASSERT_EQ(store.size(), ref.size()) << "op " << op;
        ASSERT_EQ(store.bytesStored(), ref.bytesStored()) << "op " << op;
        ASSERT_EQ(store.hits(), ref.hits()) << "op " << op;
        ASSERT_EQ(store.misses(), ref.misses()) << "op " << op;
        ASSERT_EQ(store.sets(), ref.sets()) << "op " << op;
        ASSERT_EQ(store.evictions(), ref.evictions()) << "op " << op;
    }

    // The sequence exercised what the case claims to.
    EXPECT_GT(store.hits(), 0u);
    EXPECT_GT(store.misses(), 0u);
    if (c.capacity == 0)
        EXPECT_EQ(store.evictions(), 0u);
    else
        EXPECT_GT(store.evictions(), 0u);
}

TEST(KvStoreDifferentialTest, MatchesTheStringKeyedStoreOpByOp)
{
    // 48 KiB is below the largest value, so a SET can evict the very
    // entry it stored.
    const Case cases[] = {
        {"zipf, unbounded", 0.99, 0, false},
        {"zipf, 1 MiB", 0.99, 1 << 20, false},
        {"zipf, 48 KiB", 0.99, 48 << 10, false},
        {"uniform, unbounded", 0.0, 0, false},
        {"uniform, 1 MiB", 0.0, 1 << 20, false},
        {"uniform, 48 KiB", 0.0, 48 << 10, false},
        {"uniform 64-bit ids, 1 MiB", 0.0, 1 << 20, true},
    };
    std::uint64_t seed = 11;
    for (const Case &c : cases)
        replay(c, seed++);
}

} // namespace
} // namespace server
} // namespace treadmill
