/**
 * @file
 * Differential test: the Memcached model's size-only store -- a
 * util::FlatU64Map from integer key id to value size -- against the
 * string-keyed store of real bytes it replaced (reference_kvstore.h).
 *
 * Seeded op sequences -- Zipf or uniform key ids, value sizes from
 * 1 B to 64 KiB -- run through both stores, SETs as the model applies
 * them (insertOrAssign) and GETs as it answers them (find). Every op
 * must give the same hit/miss outcome and the same returned size, and
 * after every op both stores must hold the same number of keys.
 */

#include "util/flat_map.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

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
    double zipfSkew;    ///< 0 = uniform key ids.
    bool spreadIds;     ///< Scatter ids over the full 64-bit range.
    std::uint64_t seed; ///< Op-sequence seed.
};

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
replay(const Case &c)
{
    SCOPED_TRACE(c.name);
    util::FlatU64Map<std::uint32_t> store;
    ReferenceKvStore ref;
    Rng rng(c.seed);
    std::optional<Zipf> zipf;
    if (c.zipfSkew > 0.0)
        zipf.emplace(kKeySpace, c.zipfSkew);

    int hits = 0;
    int misses = 0;
    for (int op = 0; op < kOps; ++op) {
        std::uint64_t id = zipf ? zipf->sample(rng) : rng.nextBelow(kKeySpace);
        if (c.spreadIds)
            id *= 0x9e3779b97f4a7c15ull; // a bijection on 64 bits
        const std::string key = "key:" + std::to_string(id);

        if (rng.nextDouble() < 0.5) {
            const std::uint32_t bytes = drawValueBytes(rng);
            store.insertOrAssign(id, bytes);
            ref.set(key, std::string(bytes, 'v'));
        } else {
            std::string value;
            const bool refHit = ref.get(key, &value);
            const std::uint32_t *size = store.find(id);
            ASSERT_EQ(size != nullptr, refHit) << "op " << op;
            if (refHit) {
                ASSERT_EQ(*size, value.size()) << "op " << op;
                ++hits;
            } else {
                ++misses;
            }
        }
        ASSERT_EQ(store.size(), ref.size()) << "op " << op;
    }

    // The sequence exercised what the case claims to.
    EXPECT_GT(hits, 0);
    EXPECT_GT(misses, 0);
}

TEST(KvStoreDifferentialTest, MatchesTheStringKeyedStoreOpByOp)
{
    const Case cases[] = {
        {"zipf", 0.99, false, 11},
        {"uniform", 0.0, false, 14},
        {"uniform 64-bit ids", 0.0, true, 17},
    };
    for (const Case &c : cases)
        replay(c);
}

} // namespace
} // namespace server
} // namespace treadmill
