#include "lb/hash_ring.h"

#include <algorithm>

#include "server/request.h"
#include "util/error.h"

namespace treadmill {
namespace lb {

namespace {

/** SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

HashRing::HashRing(std::uint32_t backends, std::uint32_t pointsPerBackend)
    : totalBackends(backends)
{
    if (backends == 0)
        throw ConfigError("hash ring needs at least one backend");
    if (pointsPerBackend == 0)
        throw ConfigError("hash ring needs at least one virtual node");
    points.reserve(static_cast<std::size_t>(backends) * pointsPerBackend);
    for (std::uint32_t b = 0; b < backends; ++b)
        for (std::uint32_t v = 0; v < pointsPerBackend; ++v)
            points.push_back({pointPosition(b, v), b});
    std::sort(points.begin(), points.end(),
              [](const Point &a, const Point &b) {
                  // Position collisions across 64 bits are vanishingly
                  // rare, but break ties by backend id so the ring
                  // order never depends on sort stability.
                  return a.position != b.position
                             ? a.position < b.position
                             : a.backend < b.backend;
              });
}

std::uint64_t
HashRing::hashKey(std::string_view key)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    // FNV mixes low bits weakly; finalize so ring positions and key
    // hashes occupy the full 64-bit circle uniformly.
    return mix64(h);
}

std::uint64_t
HashRing::hashKeyId(std::uint64_t keyId)
{
    char key[server::kWireKeyCapacity];
    return hashKey(server::wireKey(keyId, key));
}

std::uint64_t
HashRing::pointPosition(std::uint32_t backend, std::uint32_t vnode)
{
    return mix64((static_cast<std::uint64_t>(backend) << 32) | vnode);
}

std::uint32_t
HashRing::lookup(std::uint64_t keyHash) const
{
    const auto it = std::lower_bound(
        points.begin(), points.end(), keyHash,
        [](const Point &p, std::uint64_t h) { return p.position < h; });
    return it != points.end() ? it->backend : points.front().backend;
}

void
HashRing::replicas(std::uint64_t keyHash, std::uint32_t count,
                   std::vector<std::uint32_t> &out) const
{
    out.clear();
    if (count == 0)
        return;
    const std::uint32_t want = std::min(count, totalBackends);
    auto it = std::lower_bound(
        points.begin(), points.end(), keyHash,
        [](const Point &p, std::uint64_t h) { return p.position < h; });
    if (it == points.end())
        it = points.begin();
    // Walk clockwise collecting distinct backends; at most one full
    // revolution (every backend has a point on the ring).
    for (std::size_t steps = 0;
         steps < points.size() && out.size() < want; ++steps) {
        const std::uint32_t b = it->backend;
        if (std::find(out.begin(), out.end(), b) == out.end())
            out.push_back(b);
        ++it;
        if (it == points.end())
            it = points.begin();
    }
}

} // namespace lb
} // namespace treadmill
