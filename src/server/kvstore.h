/**
 * @file
 * An in-memory key-value store with LRU eviction that keeps each key's
 * value size, not its bytes.
 *
 * In the Memcached model a stored value matters only through its size:
 * a GET hit's response carries that many bytes, and the bytes count
 * against the store's LRU budget. Nothing ever reads value contents,
 * so the store keeps integer key ids and value sizes. Hits, misses,
 * LRU order, evictions and response sizes are exactly those of a store
 * holding real bytes -- workload configs (key popularity, value sizes,
 * GET/SET mix) behave as they would against memcached itself -- while
 * a warm store serves GETs and SETs without touching the heap.
 */

#ifndef TREADMILL_SERVER_KVSTORE_H_
#define TREADMILL_SERVER_KVSTORE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "util/flat_map.h"

namespace treadmill {
namespace server {

/**
 * Size-only KV store with byte-bounded LRU eviction.
 *
 * Entries live in one flat vector, linked into an LRU list by index;
 * evicted slots go on a free list for the next insert, and a
 * util::FlatU64Map finds a key's entry. Once the vector and the map
 * have grown to the high-water mark of live keys, no operation
 * allocates.
 */
class KvStore
{
  public:
    /**
     * @param capacityBytes Eviction threshold on stored value bytes
     *        (0 means unbounded).
     */
    explicit KvStore(std::uint64_t capacityBytes = 0);

    KvStore(const KvStore &) = delete;
    KvStore &operator=(const KvStore &) = delete;

    /**
     * Store a @p valueBytes-byte value under @p keyId, making it the
     * most recently used entry and evicting if over capacity.
     */
    void set(std::uint64_t keyId, std::uint32_t valueBytes);

    /**
     * Look up @p keyId. A hit ticks hits() and refreshes the entry's
     * LRU position; a miss ticks misses().
     *
     * @return The stored value's size, or std::nullopt on a miss.
     */
    std::optional<std::uint32_t> find(std::uint64_t keyId);

    /** Number of live entries. */
    std::size_t size() const { return index.size(); }

    /** Bytes of stored values. */
    std::uint64_t bytesStored() const { return storedBytes; }

    /** Live key ids, most recently used first (inspection; O(size)). */
    std::vector<std::uint64_t> keysByRecency() const;

    /** @name Operation counters
     * @{
     */
    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    std::uint64_t sets() const { return setCount; }
    std::uint64_t evictions() const { return evictionCount; }
    /** @} */

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    struct Entry {
        std::uint64_t keyId;
        std::uint32_t valueBytes;
        std::uint32_t prev; ///< Toward the MRU end (kNil at the head).
        std::uint32_t next; ///< Toward the LRU end; free-list link.
    };

    /** Detach entry @p i from the LRU list. */
    void unlink(std::uint32_t i);

    /** Link entry @p i in as the most recently used. */
    void pushFront(std::uint32_t i);

    /** Evict LRU entries until under capacity. */
    void enforceCapacity();

    std::uint64_t capacity;
    std::vector<Entry> entries;
    util::FlatU64Map<std::uint32_t> index; ///< keyId -> entry index.

    std::uint32_t head = kNil;     ///< Most recently used.
    std::uint32_t tail = kNil;     ///< Least recently used.
    std::uint32_t freeHead = kNil; ///< Evicted slots, chained by next.

    std::uint64_t storedBytes = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::uint64_t setCount = 0;
    std::uint64_t evictionCount = 0;
};

} // namespace server
} // namespace treadmill

#endif // TREADMILL_SERVER_KVSTORE_H_
