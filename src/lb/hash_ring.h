/**
 * @file
 * Consistent-hash ring over backend shards.
 *
 * The ring is how the load-balancer tier turns a request key into a
 * backend (and, with replication, into an ordered replica set): each
 * backend owns many virtual points on a 64-bit circle, a key hashes to
 * a point, and the owner is the first backend point at or after it.
 * The classical guarantees hold and are property-tested: with enough
 * virtual nodes the key space splits near-evenly across N backends,
 * and removing one backend remaps only the keys that backend owned
 * (about 1/N of them) -- every other key keeps its owner, so a
 * failover never reshuffles the whole cluster's working set.
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
     * the ring has fewer live backends than @p count. @p out is
     * cleared first; reuse one vector across calls to avoid
     * allocation on the dispatch path.
     */
    void replicas(std::uint64_t keyHash, std::uint32_t count,
                  std::vector<std::uint32_t> &out) const;

    /**
     * Remove every point of backend @p id (a crashed or drained
     * shard); its keys fall to their clockwise successors.
     */
    void removeBackend(std::uint32_t id);

    /** Re-insert a backend previously removed; restores the exact
     *  point set the constructor gave it. */
    void addBackend(std::uint32_t id);

    /** Number of backends currently on the ring. */
    std::uint32_t liveBackends() const { return live; }

    /** Total virtual points currently on the ring. */
    std::size_t pointCount() const { return points.size(); }

  private:
    struct Point {
        std::uint64_t position;
        std::uint32_t backend;
    };

    /** Deterministic position of (backend, vnode). */
    static std::uint64_t pointPosition(std::uint32_t backend,
                                       std::uint32_t vnode);

    void rebuild();

    std::uint32_t totalBackends;
    std::uint32_t vnodes;
    std::uint32_t live;
    std::vector<bool> present;
    std::vector<Point> points; ///< Sorted by position.
};

} // namespace lb
} // namespace treadmill

#endif // TREADMILL_LB_HASH_RING_H_
