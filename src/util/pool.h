/**
 * @file
 * Free-list arenas for hot-path objects.
 *
 * Two flavors:
 *
 *  - Pool<T>: an arena that hands out plain T pointers. make()
 *    constructs a T in a free block and release() returns the block;
 *    the free list lives in the released blocks themselves, so the
 *    arena allocates nothing but whole slabs, and once warm nothing at
 *    all. T must be trivially destructible: a block still live when
 *    the arena goes is abandoned with its slab, so whatever still
 *    points into it needs no teardown order.
 *
 *  - RawPool<T>: an index-addressed slab pool for objects whose
 *    lifetime is managed explicitly (acquire/release). Slabs are
 *    stable in memory, so T& references stay valid across further
 *    acquires; indices are 32-bit and cheap to capture in event
 *    closures.
 */

#ifndef TREADMILL_UTIL_POOL_H_
#define TREADMILL_UTIL_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace treadmill {
namespace util {

/**
 * Slab arena of T blocks with an intrusive free list. make() replaces
 * new on hot paths: the first calls carve blocks out of 64-block
 * slabs; released blocks serve every later call without touching the
 * global heap. Each block is released exactly once: releasing a block
 * that is not live in this arena panics in every build.
 */
template <typename T>
class Pool
{
    static_assert(std::is_trivially_destructible_v<T>,
                  "a Pool abandons live blocks with their slab");

  public:
    Pool() = default;
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /** Construct a T from @p args in a free block. */
    template <typename... Args>
    T *
    make(Args &&...args)
    {
        Block *block = freeHead;
        if (block != nullptr) {
            freeHead = block->next;
        } else {
            if (slabCursor == kBlocksPerSlab) {
                slabs.push_back(std::make_unique<Block[]>(kBlocksPerSlab));
                slabCursor = 0;
            }
            block = &slabs.back()[slabCursor++];
        }
        block->next = liveMark();
        ++liveCount;
        return ::new (static_cast<void *>(block->bytes))
            T(std::forward<Args>(args)...);
    }

    /** Return @p object's block to the free list. */
    void
    release(T *object)
    {
        Block *block = reinterpret_cast<Block *>(object);
        TM_ASSERT(block->next == liveMark(),
                  "Pool::release on a block that is not live");
        block->next = freeHead;
        freeHead = block;
        --liveCount;
    }

    /** Number of slabs carved so far (growth indicator). */
    std::size_t slabCount() const { return slabs.size(); }
    /** Blocks made and not yet released. */
    std::size_t inUse() const { return liveCount; }

  private:
    static constexpr std::size_t kBlocksPerSlab = 64;

    /** The object's bytes come first, so a T * is its block's
     *  address. */
    struct Block {
        alignas(T) unsigned char bytes[sizeof(T)];
        /** The next free block; a live block points at its arena. */
        Block *next;
    };

    Block *liveMark() { return reinterpret_cast<Block *>(this); }

    std::vector<std::unique_ptr<Block[]>> slabs;
    std::size_t slabCursor = kBlocksPerSlab;
    Block *freeHead = nullptr;
    std::size_t liveCount = 0;
};

/**
 * Index-addressed pool with explicit acquire/release. Storage slabs
 * never move, so references from get() remain valid while the slot is
 * held. Destroying the pool destroys any still-live slots (e.g.
 * in-flight packets when a simulation is torn down mid-run).
 */
template <typename T>
class RawPool
{
  public:
    RawPool() = default;
    RawPool(RawPool &&) noexcept = default;
    RawPool &operator=(RawPool &&) noexcept = default;
    RawPool(const RawPool &) = delete;
    RawPool &operator=(const RawPool &) = delete;

    ~RawPool()
    {
        for (std::uint32_t i = 0; i < live.size(); ++i) {
            if (live[i]) {
                slotPtr(i)->~T();
            }
        }
    }

    template <typename... Args>
    std::uint32_t
    acquire(Args &&...args)
    {
        std::uint32_t idx;
        if (!freeList.empty()) {
            idx = freeList.back();
            freeList.pop_back();
        } else {
            idx = highWater++;
            if (idx / kSlabSize == slabs.size()) {
                slabs.push_back(std::make_unique<Storage[]>(kSlabSize));
            }
            live.push_back(false);
        }
        ::new (static_cast<void *>(slotPtr(idx)))
            T{std::forward<Args>(args)...};
        live[idx] = true;
        return idx;
    }

    T &
    get(std::uint32_t idx)
    {
        TM_ASSERT(idx < highWater && live[idx],
                  "RawPool::get on a slot that is not live");
        return *slotPtr(idx);
    }

    void
    release(std::uint32_t idx)
    {
        TM_ASSERT(idx < highWater && live[idx],
                  "RawPool::release on a slot that is not live");
        slotPtr(idx)->~T();
        live[idx] = false;
        freeList.push_back(idx);
    }

    std::size_t
    liveCount() const
    {
        return static_cast<std::size_t>(highWater) - freeList.size();
    }

  private:
    static constexpr std::size_t kSlabSize = 64;

    struct Storage {
        alignas(T) unsigned char bytes[sizeof(T)];
    };

    T *
    slotPtr(std::uint32_t idx)
    {
        return std::launder(reinterpret_cast<T *>(
            slabs[idx / kSlabSize][idx % kSlabSize].bytes));
    }

    std::vector<std::unique_ptr<Storage[]>> slabs;
    std::vector<std::uint32_t> freeList;
    std::vector<bool> live;
    std::uint32_t highWater = 0;
};

} // namespace util
} // namespace treadmill

#endif // TREADMILL_UTIL_POOL_H_
