/**
 * @file
 * Consistent-hash ring over backend shards.
 *
 * The ring is how the load-balancer tier turns a request key into a
 * backend (and, with replication, into an ordered replica set): each
 * backend owns many virtual points on a 64-bit circle, a key hashes to
 * a point, and the owner is the first backend point at or after it.
 * With enough virtual nodes the key space splits near-evenly across N
 * backends (property-tested). The ring is built once and never edited:
 * the balancer fails over by skipping unhealthy replicas in the walk,
 * so a crashed backend's keys keep their replica order and every other
 * key keeps its owner.
 *
 * Determinism: points come from SplitMix64 over (backend, vnode), so a
 * ring built from the same shape is bit-identical across runs and
 * platforms; no ambient entropy, no pointer hashing.
 */

#ifndef TREADMILL_LB_HASH_RING_H_
#define TREADMILL_LB_HASH_RING_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace treadmill {
namespace lb {

/** Consistent-hash ring with virtual nodes and replica walks. */
class HashRing
{
  public:
    /**
     * @param backends Number of backend shards (ids 0..backends-1).
     * @param pointsPerBackend Virtual points per backend; more points
     *        tighten the balance bound at O(log) lookup cost.
     */
    HashRing(std::uint32_t backends, std::uint32_t pointsPerBackend);

    /** Stable 64-bit key hash (FNV-1a over the bytes). */
    static std::uint64_t hashKey(std::string_view key);

    /** hashKey() of key id @p keyId's wire key (server::wireKey),
     *  formatted on the stack: the request path builds no string. */
    static std::uint64_t hashKeyId(std::uint64_t keyId);

    /** Backend owning @p keyHash. */
    std::uint32_t lookup(std::uint64_t keyHash) const;

    /**
     * The first @p count distinct backends clockwise from @p keyHash
     * (the primary first), appended to @p out. Fewer are produced when
     * the ring has fewer backends than @p count. @p out is cleared
     * first; reuse one vector across calls to avoid allocation on the
     * dispatch path.
     */
    void replicas(std::uint64_t keyHash, std::uint32_t count,
                  std::vector<std::uint32_t> &out) const;

  private:
    struct Point {
        std::uint64_t position;
        std::uint32_t backend;
    };

    /** Deterministic position of (backend, vnode). */
    static std::uint64_t pointPosition(std::uint32_t backend,
                                       std::uint32_t vnode);

    std::uint32_t totalBackends;
    std::vector<Point> points; ///< Sorted by position.
};

} // namespace lb
} // namespace treadmill

#endif // TREADMILL_LB_HASH_RING_H_
