/**
 * @file
 * An open-addressing hash map from std::uint64_t keys to small values.
 *
 * The node-based std::unordered_map costs one heap allocation per
 * insert and one free per erase -- visible as steady-state churn on
 * paths that track an in-flight window keyed by sequence id (one
 * insert + one erase per request). FlatU64Map stores keys and values
 * in flat arrays with linear probing and backward-shift deletion, so
 * once the table has grown to cover the high-water mark of live
 * entries it never allocates again. A map nothing inserts into holds
 * no storage.
 *
 * Deliberately minimal: no iteration and no rehash-on-erase. Values
 * must be trivially copyable: they are copied in on insert, copied on
 * rehash and on backward shift, and an erased or cleared slot is only
 * marked free. A pointer from find() is invalidated by any insert or
 * erase. Sequential ids hash through a multiplicative mix so bursts of
 * consecutive keys spread across the table.
 */

#ifndef TREADMILL_UTIL_FLAT_MAP_H_
#define TREADMILL_UTIL_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace treadmill {
namespace util {

/** Flat linear-probing map: uint64 keys, value type V. */
template <typename V>
class FlatU64Map
{
    static_assert(std::is_trivially_copyable_v<V>,
                  "slots are copied and freed without destruction");

  public:
    /** Insert @p key or overwrite its existing value. */
    void
    insertOrAssign(std::uint64_t key, const V &value)
    {
        if ((count + 1) * 4 >= capacity() * 3)
            rehash(std::max(kInitialCapacity, capacity() * 2));
        std::size_t i = indexOf(key);
        while (used[i]) {
            if (keys[i] == key) {
                vals[i] = value;
                return;
            }
            i = (i + 1) & mask;
        }
        used[i] = 1;
        keys[i] = key;
        vals[i] = value;
        ++count;
    }

    /** @return Pointer to the value for @p key, or nullptr. */
    const V *
    find(std::uint64_t key) const
    {
        const std::size_t i = slotOf(key);
        return i == kNotFound ? nullptr : &vals[i];
    }

    /** @return Mutable pointer to the value for @p key, or nullptr. */
    V *
    find(std::uint64_t key)
    {
        const std::size_t i = slotOf(key);
        return i == kNotFound ? nullptr : &vals[i];
    }

    /**
     * Remove @p key if present (backward-shift deletion keeps probe
     * chains intact without tombstones).
     *
     * @return true when an entry was removed.
     */
    bool
    erase(std::uint64_t key)
    {
        const std::size_t i = slotOf(key);
        if (i == kNotFound)
            return false;
        std::size_t hole = i;
        std::size_t j = (hole + 1) & mask;
        while (used[j]) {
            const std::size_t ideal = indexOf(keys[j]);
            // Shift j back into the hole only if doing so does not
            // move it before its ideal slot in cyclic probe order.
            if (((j - ideal) & mask) >= ((j - hole) & mask)) {
                keys[hole] = keys[j];
                vals[hole] = vals[j];
                hole = j;
            }
            j = (j + 1) & mask;
        }
        used[hole] = 0;
        --count;
        return true;
    }

    /** Number of live entries. */
    std::size_t size() const { return count; }

    bool empty() const { return count == 0; }

    /** Drop every entry; capacity (and thus allocations) is kept. */
    void
    clear()
    {
        std::fill(used.begin(), used.end(), std::uint8_t{0});
        count = 0;
    }

    /** Current slot count (regression hook for allocation tests). */
    std::size_t capacity() const { return used.size(); }

    /** Grow so @p n entries fit without rehashing. */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = std::max(kInitialCapacity, capacity());
        while (n * 4 >= cap * 3)
            cap *= 2;
        if (cap != capacity())
            rehash(cap);
    }

  private:
    static constexpr std::size_t kInitialCapacity = 16;
    static constexpr std::size_t kNotFound = ~std::size_t{0};

    /** Slot holding @p key, or kNotFound. */
    std::size_t
    slotOf(std::uint64_t key) const
    {
        if (count == 0)
            return kNotFound;
        std::size_t i = indexOf(key);
        while (used[i]) {
            if (keys[i] == key)
                return i;
            i = (i + 1) & mask;
        }
        return kNotFound;
    }

    std::size_t
    indexOf(std::uint64_t key) const
    {
        // Fibonacci-style multiplicative mix; consecutive sequence
        // ids land in unrelated slots.
        std::uint64_t h = key * 0x9e3779b97f4a7c15ull;
        h ^= h >> 32;
        return static_cast<std::size_t>(h) & mask;
    }

    void
    rehash(std::size_t newCapacity)
    {
        TM_ASSERT((newCapacity & (newCapacity - 1)) == 0,
                  "flat map capacity must be a power of two");
        std::vector<std::uint64_t> oldKeys = std::move(keys);
        std::vector<V> oldVals = std::move(vals);
        std::vector<std::uint8_t> oldUsed = std::move(used);
        keys.assign(newCapacity, 0);
        vals = std::vector<V>(newCapacity);
        used.assign(newCapacity, 0);
        mask = newCapacity - 1;
        count = 0;
        for (std::size_t i = 0; i < oldUsed.size(); ++i) {
            if (!oldUsed[i])
                continue;
            std::size_t j = indexOf(oldKeys[i]);
            while (used[j])
                j = (j + 1) & mask;
            used[j] = 1;
            keys[j] = oldKeys[i];
            vals[j] = oldVals[i];
            ++count;
        }
    }

    std::vector<std::uint64_t> keys;
    std::vector<V> vals;
    std::vector<std::uint8_t> used;
    std::size_t mask = 0;
    std::size_t count = 0;
};

} // namespace util
} // namespace treadmill

#endif // TREADMILL_UTIL_FLAT_MAP_H_
