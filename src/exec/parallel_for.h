/**
 * @file
 * Index-space fan-out: the one concurrency shape a study needs.
 *
 * parallelFor(par, n, fn) runs fn(0) ... fn(n-1) on up to
 * par.resolve() threads of its own and returns once every one of them
 * has joined. The contract that makes this safe for simulations is
 * *seed isolation*: each index must touch only state it owns (its own
 * Simulation, Rng, collectors), so that execution order cannot change
 * results. Under that contract parallelFor is bit-exact with the
 * serial loop, because results are addressed by index, never by
 * completion order.
 *
 * A Parallelism of 1 runs the plain serial loop on the calling thread
 * with no threads, locks, or atomics -- the baseline the determinism
 * suite compares against.
 */

#ifndef TREADMILL_EXEC_PARALLEL_FOR_H_
#define TREADMILL_EXEC_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace treadmill {
namespace exec {

/**
 * The parallelism knob threaded through every sweep-shaped API.
 *
 * threads == 0 (the default) resolves to the hardware concurrency;
 * threads == 1 selects the serial path; any other value pins the
 * thread count explicitly.
 */
struct Parallelism {
    unsigned threads = 0;

    /** The thread count this knob resolves to (>= 1). */
    unsigned
    resolve() const
    {
        if (threads != 0)
            return threads;
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : hw;
    }

    /** The single-threaded path. */
    static Parallelism
    serial()
    {
        return Parallelism{1};
    }
};

/**
 * Run @p fn over the index range [0, n).
 *
 * With lanes = min(par.resolve(), n) > 1, parallelFor starts `lanes`
 * threads, each claiming the next unclaimed index until none is left,
 * and the calling thread only joins them. Tasks of uneven cost
 * balance naturally. If any invocation throws, indices not yet
 * started are abandoned (started ones finish) and the first captured
 * exception is rethrown on the calling thread after every thread has
 * joined. If starting a thread fails, the lanes already running stop
 * the same way and that error is rethrown.
 *
 * @param par Parallelism knob; resolve() == 1 runs serially inline.
 * @param n   Number of indices; 0 is a no-op.
 * @param fn  Callable invoked as fn(std::size_t index).
 */
template <typename Fn>
void
parallelFor(const Parallelism &par, std::size_t n, Fn &&fn)
{
    if (n == 0)
        return;

    const std::size_t lanes =
        std::min<std::size_t>(par.resolve(), n);
    if (lanes <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex errorMutex;
    const auto fail = [&](std::exception_ptr e) {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!error)
            error = std::move(e);
        failed.store(true, std::memory_order_relaxed);
    };
    const auto lane = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                fail(std::current_exception());
                return;
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(lanes);
    try {
        for (std::size_t l = 0; l < lanes; ++l)
            threads.emplace_back(lane);
    } catch (...) {
        fail(std::current_exception());
    }
    for (std::thread &t : threads)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace exec
} // namespace treadmill

#endif // TREADMILL_EXEC_PARALLEL_FOR_H_
