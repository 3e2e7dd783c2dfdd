/** @file Unit tests for the reservoir sampler. */

#include "stats/reservoir.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "stats/summary.h"
#include "util/error.h"

namespace treadmill {
namespace stats {
namespace {

TEST(ReservoirTest, RejectsZeroCapacity)
{
    EXPECT_THROW(ReservoirSampler(0, Rng(1)), ConfigError);
}

TEST(ReservoirTest, KeepsEverythingBelowCapacity)
{
    ReservoirSampler r(10, Rng(1));
    for (int i = 0; i < 5; ++i)
        r.add(static_cast<double>(i));
    EXPECT_EQ(r.samples().size(), 5u);
    EXPECT_EQ(r.seen(), 5u);
}

TEST(ReservoirTest, CapsAtCapacity)
{
    ReservoirSampler r(100, Rng(2));
    for (int i = 0; i < 10000; ++i)
        r.add(static_cast<double>(i));
    EXPECT_EQ(r.samples().size(), 100u);
    EXPECT_EQ(r.seen(), 10000u);
}

TEST(ReservoirTest, SampleIsApproximatelyUniform)
{
    // Offer 0..9999; the retained mean should approximate the stream
    // mean across repeated reservoirs.
    std::vector<double> means;
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        ReservoirSampler r(200, Rng(seed));
        for (int i = 0; i < 10000; ++i)
            r.add(static_cast<double>(i));
        EXPECT_EQ(r.samples().size(), 200u);
        means.push_back(stats::mean(r.samples()));
    }
    EXPECT_NEAR(stats::mean(means), 4999.5, 150.0);
}

TEST(ReservoirTest, DeterministicForSameSeed)
{
    ReservoirSampler a(50, Rng(7));
    ReservoirSampler b(50, Rng(7));
    for (int i = 0; i < 5000; ++i) {
        a.add(static_cast<double>(i));
        b.add(static_cast<double>(i));
    }
    EXPECT_EQ(a.samples(), b.samples());
}

TEST(ReservoirTest, RestoredValidatesShape)
{
    EXPECT_THROW(
        ReservoirSampler::restored(4, Rng(1), {1, 2, 3, 4, 5}, 5),
        ConfigError);
    EXPECT_THROW(ReservoirSampler::restored(4, Rng(1), {1, 2, 3}, 2),
                 ConfigError);
    const auto r =
        ReservoirSampler::restored(4, Rng(1), {1, 2, 3}, 3);
    EXPECT_EQ(r.samples().size(), 3u);
    EXPECT_EQ(r.seen(), 3u);
}

TEST(ReservoirTest, RestoredContinuesLikeTheOriginal)
{
    // Restoring mid-stream then continuing must behave like a sampler
    // that never stopped: same retained count and a uniform sample.
    ReservoirSampler original(50, Rng(11));
    for (int i = 0; i < 30; ++i)
        original.add(static_cast<double>(i));
    auto resumed = ReservoirSampler::restored(
        50, Rng(11), original.samples(), original.seen());
    for (int i = 30; i < 5000; ++i)
        resumed.add(static_cast<double>(i));
    EXPECT_EQ(resumed.samples().size(), 50u);
    EXPECT_EQ(resumed.seen(), 5000u);
}

TEST(ReservoirTest, MergeConcatenatesWhenEverythingFits)
{
    ReservoirSampler a(100, Rng(3));
    ReservoirSampler b(100, Rng(4));
    for (int i = 0; i < 40; ++i)
        a.add(static_cast<double>(i));
    for (int i = 40; i < 90; ++i)
        b.add(static_cast<double>(i));
    a.merge(b);
    EXPECT_EQ(a.samples().size(), 90u);
    EXPECT_EQ(a.seen(), 90u);
    // Nothing was dropped on either side, so the merge is lossless.
    auto merged = a.samples();
    std::sort(merged.begin(), merged.end());
    for (int i = 0; i < 90; ++i)
        EXPECT_EQ(merged[static_cast<std::size_t>(i)],
                  static_cast<double>(i));
}

TEST(ReservoirTest, MergeWeightsSidesByStreamLength)
{
    // Side A saw 9x the stream of side B, so retained items should
    // come from A and B in roughly 9:1 proportion -- the
    // hypergeometric allocation, averaged over seeds.
    std::vector<double> fractionFromA;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        ReservoirSampler a(500, Rng(seed * 2 + 1));
        ReservoirSampler b(500, Rng(seed * 2 + 2));
        for (int i = 0; i < 9000; ++i)
            a.add(1.0); // marker: side A
        for (int i = 0; i < 1000; ++i)
            b.add(0.0); // marker: side B
        a.merge(b);
        EXPECT_EQ(a.seen(), 10000u);
        EXPECT_EQ(a.samples().size(), 500u);
        double fromA = 0.0;
        for (double x : a.samples())
            fromA += x;
        fractionFromA.push_back(fromA / 500.0);
    }
    EXPECT_NEAR(stats::mean(fractionFromA), 0.9, 0.02);
}

TEST(ReservoirTest, MergedSampleStaysUniform)
{
    // Merge two reservoirs over disjoint halves of 0..9999; the
    // merged retained mean must still track the union-stream mean.
    std::vector<double> means;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        ReservoirSampler a(300, Rng(seed * 2 + 1));
        ReservoirSampler b(300, Rng(seed * 2 + 2));
        for (int i = 0; i < 5000; ++i)
            a.add(static_cast<double>(i));
        for (int i = 5000; i < 10000; ++i)
            b.add(static_cast<double>(i));
        a.merge(b);
        EXPECT_EQ(a.seen(), 10000u);
        EXPECT_EQ(a.samples().size(), 300u);
        means.push_back(stats::mean(a.samples()));
    }
    EXPECT_NEAR(stats::mean(means), 4999.5, 200.0);
}

TEST(ReservoirTest, MergeIsDeterministic)
{
    const auto build = [] {
        ReservoirSampler a(64, Rng(21));
        ReservoirSampler b(64, Rng(22));
        for (int i = 0; i < 500; ++i)
            a.add(static_cast<double>(i));
        for (int i = 500; i < 1200; ++i)
            b.add(static_cast<double>(i));
        a.merge(b);
        return a.samples();
    };
    EXPECT_EQ(build(), build());
}

} // namespace
} // namespace stats
} // namespace treadmill
