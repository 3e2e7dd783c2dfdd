/**
 * @file
 * Interposing global operator new/delete that tick the counters in
 * alloc_counter.h.
 *
 * Compiled into its own static library (treadmill_alloc_hook) and
 * linked ONLY into allocation-measuring binaries: replacing the
 * global operators is a whole-program decision, and sanitizer builds
 * must keep their own interceptors. Binaries opt in by linking the
 * library and calling forceLinkAllocHook() so the archive member is
 * pulled in.
 */

#include <cstdlib>
#include <new>

#include "util/alloc_counter.h"

namespace treadmill {
namespace util {

namespace {

void *
countedAlloc(std::size_t size)
{
    detail::noteAllocation();
    // malloc(0) may return nullptr; operator new must not.
    void *p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

struct HookRegistrar {
    HookRegistrar() { detail::markCountingActive(); }
};
HookRegistrar gRegistrar;

} // namespace

void
forceLinkAllocHook()
{
    // Referencing this symbol from a binary forces the linker to keep
    // this translation unit (and with it the replaced operators).
}

} // namespace util
} // namespace treadmill

void *
operator new(std::size_t size)
{
    return treadmill::util::countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return treadmill::util::countedAlloc(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    treadmill::util::detail::noteAllocation();
    return std::malloc(size == 0 ? 1 : size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    treadmill::util::detail::noteAllocation();
    return std::malloc(size == 0 ? 1 : size);
}

void
operator delete(void *p) noexcept
{
    if (p != nullptr) {
        treadmill::util::detail::noteFree();
    }
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    if (p != nullptr) {
        treadmill::util::detail::noteFree();
    }
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete[](p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    ::operator delete[](p);
}
