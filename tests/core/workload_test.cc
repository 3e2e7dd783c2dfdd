/** @file Unit tests for workload configuration and generation. */

#include "core/workload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "util/error.h"
#include "util/json.h"

namespace treadmill {
namespace core {
namespace {

TEST(WorkloadConfigTest, FromJsonParsesAllFields)
{
    const auto cfg = WorkloadConfig::fromJson(json::parse(R"({
        "get_fraction": 0.9,
        "key_space": 5000,
        "zipf_skew": 0.8,
        "value_bytes": {"mean": 200, "sigma": 20},
        "request_overhead_bytes": 64
    })"));
    EXPECT_DOUBLE_EQ(cfg.getFraction, 0.9);
    EXPECT_EQ(cfg.keySpace, 5000u);
    EXPECT_DOUBLE_EQ(cfg.zipfSkew, 0.8);
    EXPECT_DOUBLE_EQ(cfg.valueBytesMean, 200.0);
    EXPECT_DOUBLE_EQ(cfg.valueBytesSigma, 20.0);
    EXPECT_EQ(cfg.requestOverheadBytes, 64u);
}

TEST(WorkloadConfigTest, MissingKeysKeepDefaults)
{
    const auto cfg = WorkloadConfig::fromJson(json::parse("{}"));
    const WorkloadConfig defaults;
    EXPECT_DOUBLE_EQ(cfg.getFraction, defaults.getFraction);
    EXPECT_EQ(cfg.keySpace, defaults.keySpace);
}

TEST(WorkloadConfigTest, JsonRoundTrips)
{
    WorkloadConfig cfg;
    cfg.getFraction = 0.8;
    cfg.keySpace = 1234;
    cfg.zipfSkew = 0.0;
    cfg.valueBytesMean = 500.0;
    const auto back = WorkloadConfig::fromJson(cfg.toJson());
    EXPECT_DOUBLE_EQ(back.getFraction, cfg.getFraction);
    EXPECT_EQ(back.keySpace, cfg.keySpace);
    EXPECT_DOUBLE_EQ(back.zipfSkew, cfg.zipfSkew);
    EXPECT_DOUBLE_EQ(back.valueBytesMean, cfg.valueBytesMean);
}

TEST(WorkloadConfigTest, ValidateRejectsBadRanges)
{
    WorkloadConfig cfg;
    cfg.getFraction = 1.5;
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg = WorkloadConfig{};
    cfg.keySpace = 0;
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg = WorkloadConfig{};
    cfg.zipfSkew = 1.0;
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg = WorkloadConfig{};
    cfg.valueBytesMean = 0.0;
    EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(WorkloadGeneratorTest, GetFractionRespected)
{
    WorkloadConfig cfg;
    cfg.getFraction = 0.95;
    WorkloadGenerator gen(cfg, Rng(1));
    int gets = 0;
    const int n = 20000;
    server::Request req;
    for (int i = 0; i < n; ++i) {
        gen.fill(req);
        gets += req.op == server::OpType::Get ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(gets) / n, 0.95, 0.01);
}

TEST(WorkloadGeneratorTest, KeysStayInKeySpace)
{
    WorkloadConfig cfg;
    cfg.keySpace = 100;
    WorkloadGenerator gen(cfg, Rng(2));
    server::Request req;
    for (int i = 0; i < 1000; ++i) {
        gen.fill(req);
        EXPECT_LT(req.keyId, 100u);
        EXPECT_EQ(req.keyBytes, 4 + std::to_string(req.keyId).size());
    }
}

TEST(WorkloadGeneratorTest, ZipfConcentratesOnHotKeys)
{
    WorkloadConfig cfg;
    cfg.keySpace = 1000;
    cfg.zipfSkew = 0.99;
    WorkloadGenerator gen(cfg, Rng(3));
    int hot = 0;
    const int n = 20000;
    server::Request req;
    for (int i = 0; i < n; ++i) {
        gen.fill(req);
        if (req.keyId < 10)
            ++hot;
    }
    // Under Zipf(0.99), the top 1% of keys get a large share.
    EXPECT_GT(static_cast<double>(hot) / n, 0.20);
}

TEST(WorkloadGeneratorTest, UniformWhenSkewIsZero)
{
    WorkloadConfig cfg;
    cfg.keySpace = 1000;
    cfg.zipfSkew = 0.0;
    WorkloadGenerator gen(cfg, Rng(4));
    int hot = 0;
    const int n = 20000;
    server::Request req;
    for (int i = 0; i < n; ++i) {
        gen.fill(req);
        if (req.keyId < 10)
            ++hot;
    }
    EXPECT_NEAR(static_cast<double>(hot) / n, 0.01, 0.005);
}

TEST(WorkloadGeneratorTest, ValueSizesHaveConfiguredMean)
{
    WorkloadConfig cfg;
    cfg.valueBytesMean = 300.0;
    cfg.valueBytesSigma = 100.0;
    WorkloadGenerator gen(cfg, Rng(5));
    double sum = 0.0;
    const int n = 50000;
    server::Request req;
    for (int i = 0; i < n; ++i) {
        gen.fill(req);
        sum += req.valueBytes;
    }
    EXPECT_NEAR(sum / n, 300.0, 10.0);
}

TEST(WorkloadGeneratorTest, SetRequestsCarryPayloadBytes)
{
    WorkloadConfig cfg;
    cfg.getFraction = 0.0; // all SETs
    cfg.valueBytesSigma = 0.0;
    cfg.valueBytesMean = 128.0;
    WorkloadGenerator gen(cfg, Rng(6));
    server::Request req;
    gen.fill(req);
    EXPECT_EQ(req.op, server::OpType::Set);
    EXPECT_GT(req.requestBytes,
              cfg.requestOverheadBytes + req.valueBytes);
    EXPECT_EQ(req.requestBytes,
              cfg.requestOverheadBytes + req.keyBytes + req.valueBytes);
}

TEST(WorkloadGeneratorTest, KeyBytesCountTheWireKey)
{
    // The wire key is "key:<n>" at every digit count, one to
    // UINT64_MAX's twenty; requestBytes depends on its length.
    const std::uint64_t ids[] = {0, 9, 10, 99999, std::uint64_t{1} << 32,
                                 std::numeric_limits<std::uint64_t>::max()};
    for (const std::uint64_t n : ids) {
        char key[server::kWireKeyCapacity];
        EXPECT_EQ(server::wireKey(n, key), "key:" + std::to_string(n))
            << "key id " << n;
    }

    // And on generated requests, over a 2^40-key space.
    WorkloadConfig cfg;
    cfg.keySpace = std::uint64_t{1} << 40;
    cfg.zipfSkew = 0.0;
    WorkloadGenerator gen(cfg, Rng(8));
    server::Request req;
    for (int i = 0; i < 1000; ++i) {
        gen.fill(req);
        EXPECT_EQ(req.keyBytes, 4 + std::to_string(req.keyId).size());
    }
}

TEST(WorkloadGeneratorTest, DeterministicForSameSeed)
{
    WorkloadConfig cfg;
    WorkloadGenerator a(cfg, Rng(7));
    WorkloadGenerator b(cfg, Rng(7));
    server::Request ra;
    server::Request rb;
    for (int i = 0; i < 100; ++i) {
        a.fill(ra);
        b.fill(rb);
        EXPECT_EQ(ra.keyId, rb.keyId);
        EXPECT_EQ(ra.keyBytes, rb.keyBytes);
        EXPECT_EQ(ra.valueBytes, rb.valueBytes);
        EXPECT_EQ(ra.op, rb.op);
    }
}

} // namespace
} // namespace core
} // namespace treadmill
