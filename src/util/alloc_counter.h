/**
 * @file
 * Process-wide heap-allocation counters.
 *
 * The counters here are always compiled into treadmill_util, but they
 * only tick when the interposing operator new/delete defined in
 * alloc_hook.cc is linked into the final binary (see the
 * treadmill_alloc_hook static library). Benchmarks and the
 * TM_COUNT_ALLOCS-gated tests link the hook to assert that the
 * steady-state simulator hot path performs zero allocations per
 * request; ordinary builds and the sanitizer jobs never see the
 * interposed operators, so ASan/TSan allocation bookkeeping is
 * unaffected.
 */

#ifndef TREADMILL_UTIL_ALLOC_COUNTER_H_
#define TREADMILL_UTIL_ALLOC_COUNTER_H_

#include <cstdint>

namespace treadmill {
namespace util {

/** Total operator-new calls observed (0 unless the hook is linked). */
std::uint64_t allocCount();

/** Total operator-delete calls observed. */
std::uint64_t freeCount();

/** True when the interposing hook is linked into this binary. */
bool allocCountingActive();

/**
 * Defined in alloc_hook.cc (treadmill_alloc_hook). Call it once from a
 * measuring binary to force the linker to pull in the interposing
 * operators; calling it is what opts a binary into counting.
 */
void forceLinkAllocHook();

namespace detail {
/** Called by the hook's registrar; not for general use. */
void noteAllocation();
void noteFree();
void markCountingActive();
} // namespace detail

} // namespace util
} // namespace treadmill

#endif // TREADMILL_UTIL_ALLOC_COUNTER_H_
