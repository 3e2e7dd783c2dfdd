/** @file Unit tests for parallelFor and ProgressMeter. */

#include "exec/parallel_for.h"
#include "exec/progress.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace treadmill {
namespace exec {
namespace {

/** Long enough for lanes to overlap, short enough to stay quick. */
void
briefWork()
{
    std::this_thread::sleep_for(std::chrono::microseconds(200));
}

TEST(ParallelismTest, ResolvesDefaultsToHardware)
{
    const Parallelism par;
    EXPECT_EQ(par.resolve(),
              std::max(1u, std::thread::hardware_concurrency()));
    EXPECT_GE(par.resolve(), 1u);
    EXPECT_EQ(Parallelism::serial().resolve(), 1u);
    EXPECT_EQ(Parallelism{6}.resolve(), 6u);
}

TEST(ParallelForTest, EmptyRangeIsNoOp)
{
    std::atomic<int> calls{0};
    parallelFor(Parallelism{4}, 0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        std::vector<std::atomic<int>> visits(257);
        parallelFor(Parallelism{threads}, visits.size(),
                    [&](std::size_t i) { ++visits[i]; });
        for (const auto &v : visits)
            EXPECT_EQ(v.load(), 1);
    }
}

TEST(ParallelForTest, MoreTasksThanThreads)
{
    std::atomic<std::uint64_t> sum{0};
    parallelFor(Parallelism{3}, 1000,
                [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 999u * 1000 / 2);
}

TEST(ParallelForTest, FillsIndexAddressedSlots)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        std::vector<int> out(100);
        parallelFor(Parallelism{threads}, out.size(), [&](std::size_t i) {
            out[i] = static_cast<int>(i * i);
        });
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], static_cast<int>(i * i));
    }
}

TEST(ParallelForTest, SerialPathRunsInOrderOnCallingThread)
{
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool offCaller = false;
    parallelFor(Parallelism::serial(), 10, [&](std::size_t i) {
        order.push_back(i);
        offCaller = offCaller || std::this_thread::get_id() != caller;
    });
    std::vector<std::size_t> expected(10);
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(order, expected);
    EXPECT_FALSE(offCaller);
}

TEST(ParallelForTest, NoIndexRunsOnTheCallingThread)
{
    // With more than one lane the caller only joins: every index runs
    // on a thread parallelFor started.
    const auto caller = std::this_thread::get_id();
    for (unsigned threads : {2u, 4u}) {
        std::atomic<int> onCaller{0};
        std::atomic<int> ran{0};
        parallelFor(Parallelism{threads}, 64, [&](std::size_t) {
            if (std::this_thread::get_id() == caller)
                ++onCaller;
            ++ran;
        });
        EXPECT_EQ(onCaller.load(), 0);
        EXPECT_EQ(ran.load(), 64);
    }
}

TEST(ParallelForTest, AtMostResolveLanesRunAtOnce)
{
    const auto peakLanes = [](unsigned threads, std::size_t n) {
        std::atomic<unsigned> running{0};
        std::atomic<unsigned> peak{0};
        parallelFor(Parallelism{threads}, n, [&](std::size_t) {
            const unsigned now = ++running;
            unsigned seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            briefWork();
            --running;
        });
        return peak.load();
    };
    for (unsigned threads : {2u, 3u}) {
        const unsigned peak = peakLanes(threads, 48);
        EXPECT_GE(peak, 1u);
        EXPECT_LE(peak, threads);
    }
    // A range shorter than the knob starts one lane per index.
    EXPECT_LE(peakLanes(8, 2), 2u);
}

TEST(ParallelForTest, NothingRunsAfterReturn)
{
    std::atomic<int> running{0};
    std::atomic<int> finished{0};
    parallelFor(Parallelism{4}, 32, [&](std::size_t) {
        ++running;
        briefWork();
        --running;
        ++finished;
    });
    EXPECT_EQ(running.load(), 0);
    EXPECT_EQ(finished.load(), 32);
    // No lane is left to pick up work after the join.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(finished.load(), 32);
}

TEST(ParallelForTest, PropagatesExceptionSerial)
{
    EXPECT_THROW(
        parallelFor(Parallelism::serial(), 5,
                    [](std::size_t i) {
                        if (i == 3)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
}

TEST(ParallelForTest, PropagatesExceptionParallel)
{
    for (unsigned threads : {2u, 8u}) {
        std::atomic<int> started{0};
        std::atomic<int> running{0};
        try {
            parallelFor(Parallelism{threads}, 64, [&](std::size_t i) {
                ++started;
                ++running;
                briefWork();
                --running;
                if (i == 7)
                    throw std::runtime_error("boom");
            });
            FAIL() << "expected std::runtime_error";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom");
        }
        // At least the throwing index ran; abandoned indices are fine.
        EXPECT_GE(started.load(), 1);
        // The rethrow waits for every lane: none is mid-task, and none
        // starts another index afterwards.
        EXPECT_EQ(running.load(), 0);
        const int startedAtThrow = started.load();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        EXPECT_EQ(started.load(), startedAtThrow);
    }
}

TEST(ProgressMeterTest, CountsEveryTaskAndWorkOneCallAtATime)
{
    std::atomic<int> inCall{0};
    std::atomic<int> overlaps{0};
    std::size_t calls = 0;
    std::size_t lastCompleted = 0;
    double lastWall = 0.0;
    double lastWork = 0.0;
    ProgressMeter meter(32, [&](const Progress &p) {
        if (++inCall != 1)
            ++overlaps;
        ++calls;
        EXPECT_EQ(p.total, 32u);
        EXPECT_EQ(p.completed, lastCompleted + 1);
        EXPECT_GE(p.wallSeconds, lastWall);
        lastCompleted = p.completed;
        lastWall = p.wallSeconds;
        lastWork = p.workUnits;
        // A slow observer: lanes finishing meanwhile must wait.
        briefWork();
        --inCall;
    });
    parallelFor(Parallelism{4}, 32,
                [&](std::size_t) { meter.done(1.5); });
    EXPECT_EQ(overlaps.load(), 0);
    EXPECT_EQ(calls, 32u);
    EXPECT_EQ(lastCompleted, 32u);
    EXPECT_DOUBLE_EQ(lastWork, 32 * 1.5);
}

TEST(ProgressMeterTest, WithoutObserverDoneIsANoOp)
{
    ProgressMeter meter(4, {});
    parallelFor(Parallelism{2}, 4, [&](std::size_t) { meter.done(1.0); });
    SUCCEED();
}

} // namespace
} // namespace exec
} // namespace treadmill
