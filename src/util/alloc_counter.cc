#include "util/alloc_counter.h"

#include <atomic>

namespace treadmill {
namespace util {

namespace {

std::atomic<std::uint64_t> gAllocCount{0};
std::atomic<std::uint64_t> gFreeCount{0};
std::atomic<bool> gActive{false};

} // namespace

std::uint64_t
allocCount()
{
    return gAllocCount.load(std::memory_order_relaxed);
}

std::uint64_t
freeCount()
{
    return gFreeCount.load(std::memory_order_relaxed);
}

bool
allocCountingActive()
{
    return gActive.load(std::memory_order_relaxed);
}

namespace detail {

void
noteAllocation()
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
}

void
noteFree()
{
    gFreeCount.fetch_add(1, std::memory_order_relaxed);
}

void
markCountingActive()
{
    gActive.store(true, std::memory_order_relaxed);
}

} // namespace detail

} // namespace util
} // namespace treadmill
