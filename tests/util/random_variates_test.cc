/** @file Distributional property tests for the random variate library. */

#include "util/random_variates.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace treadmill {
namespace {

double
sampleMean(std::vector<double> &xs)
{
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

TEST(ExponentialTest, RejectsNonPositiveRate)
{
    EXPECT_THROW(Exponential(0.0), ConfigError);
    EXPECT_THROW(Exponential(-1.0), ConfigError);
}

TEST(ExponentialTest, MeanMatchesRate)
{
    Rng rng(1);
    Exponential exp(4.0);
    std::vector<double> xs;
    for (int i = 0; i < 100000; ++i)
        xs.push_back(exp.sample(rng));
    EXPECT_NEAR(sampleMean(xs), 0.25, 0.01);
}

TEST(ExponentialTest, MemorylessTailRatio)
{
    // P(X > s + t | X > s) == P(X > t) for the exponential.
    Rng rng(2);
    Exponential exp(1.0);
    int beyond1 = 0;
    int beyond2Given1 = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = exp.sample(rng);
        if (x > 1.0) {
            ++beyond1;
            if (x > 2.0)
                ++beyond2Given1;
        }
    }
    const double conditional =
        static_cast<double>(beyond2Given1) / beyond1;
    EXPECT_NEAR(conditional, std::exp(-1.0), 0.02);
}

TEST(ExponentialTest, AllSamplesPositive)
{
    Rng rng(3);
    Exponential exp(10.0);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GT(exp.sample(rng), 0.0);
}

TEST(NormalTest, MomentsMatch)
{
    Rng rng(5);
    Normal n(10.0, 2.0);
    std::vector<double> xs;
    for (int i = 0; i < 200000; ++i)
        xs.push_back(n.sample(rng));
    const double m = sampleMean(xs);
    double var = 0.0;
    for (double x : xs)
        var += (x - m) * (x - m);
    var /= static_cast<double>(xs.size() - 1);
    EXPECT_NEAR(m, 10.0, 0.03);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.03);
}

TEST(NormalTest, RejectsNegativeStddev)
{
    EXPECT_THROW(Normal(0.0, -1.0), ConfigError);
}

TEST(LogNormalTest, FromMomentsRecoversMean)
{
    Rng rng(6);
    LogNormal ln = LogNormal::fromMoments(100.0, 50.0);
    std::vector<double> xs;
    for (int i = 0; i < 200000; ++i)
        xs.push_back(ln.sample(rng));
    EXPECT_NEAR(sampleMean(xs), 100.0, 1.5);
}

TEST(LogNormalTest, AllSamplesPositive)
{
    Rng rng(7);
    LogNormal ln(0.0, 1.0);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GT(ln.sample(rng), 0.0);
}

TEST(LogNormalTest, FromMomentsRejectsNonPositiveMean)
{
    EXPECT_THROW(LogNormal::fromMoments(0.0, 1.0), ConfigError);
}

TEST(BernoulliTest, FrequencyMatchesProbability)
{
    Rng rng(10);
    Bernoulli b(0.3);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += b.sample(rng) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(BernoulliTest, ExtremesAreDeterministic)
{
    Rng rng(10);
    Bernoulli never(0.0);
    Bernoulli always(1.0);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(never.sample(rng));
        EXPECT_TRUE(always.sample(rng));
    }
}

TEST(BernoulliTest, RejectsOutOfRange)
{
    EXPECT_THROW(Bernoulli(-0.1), ConfigError);
    EXPECT_THROW(Bernoulli(1.1), ConfigError);
}

TEST(ZipfTest, SamplesStayInSupport)
{
    Rng rng(11);
    Zipf z(100, 0.99);
    for (int i = 0; i < 20000; ++i)
        EXPECT_LT(z.sample(rng), 100u);
}

TEST(ZipfTest, RankZeroIsMostPopular)
{
    Rng rng(12);
    Zipf z(1000, 0.9);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[z.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[100]);
    EXPECT_GT(counts[10], counts[500]);
}

TEST(ZipfTest, RejectsDegenerateParameters)
{
    EXPECT_THROW(Zipf(0, 0.9), ConfigError);
    EXPECT_THROW(Zipf(10, 1.0), ConfigError);
    EXPECT_THROW(Zipf(10, 0.0), ConfigError);
}

} // namespace
} // namespace treadmill
