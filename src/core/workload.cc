#include "core/workload.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace treadmill {
namespace core {

WorkloadConfig
WorkloadConfig::fromJson(const json::Value &doc)
{
    WorkloadConfig cfg;
    cfg.getFraction = doc.numberOr("get_fraction", cfg.getFraction);
    cfg.keySpace = static_cast<std::uint64_t>(
        doc.intOr("key_space", static_cast<std::int64_t>(cfg.keySpace)));
    cfg.zipfSkew = doc.numberOr("zipf_skew", cfg.zipfSkew);
    if (doc.contains("value_bytes")) {
        const json::Value &vb = doc.at("value_bytes");
        cfg.valueBytesMean = vb.numberOr("mean", cfg.valueBytesMean);
        cfg.valueBytesSigma = vb.numberOr("sigma", cfg.valueBytesSigma);
    }
    cfg.requestOverheadBytes = static_cast<std::uint32_t>(doc.intOr(
        "request_overhead_bytes",
        static_cast<std::int64_t>(cfg.requestOverheadBytes)));
    cfg.validate();
    return cfg;
}

json::Value
WorkloadConfig::toJson() const
{
    json::Object vb;
    vb["mean"] = json::Value(valueBytesMean);
    vb["sigma"] = json::Value(valueBytesSigma);

    json::Object doc;
    doc["get_fraction"] = json::Value(getFraction);
    doc["key_space"] =
        json::Value(static_cast<std::int64_t>(keySpace));
    doc["zipf_skew"] = json::Value(zipfSkew);
    doc["value_bytes"] = json::Value(std::move(vb));
    doc["request_overhead_bytes"] =
        json::Value(static_cast<std::int64_t>(requestOverheadBytes));
    return json::Value(std::move(doc));
}

void
WorkloadConfig::validate() const
{
    if (getFraction < 0.0 || getFraction > 1.0)
        throw ConfigError("get_fraction must lie in [0, 1]");
    if (keySpace == 0)
        throw ConfigError(
            "key_space must be >= 1: an empty key space leaves the "
            "generator nothing to sample");
    if (zipfSkew < 0.0)
        throw ConfigError("zipf_skew must be >= 0 (0 = uniform)");
    if (zipfSkew == 1.0)
        throw ConfigError(
            "zipf_skew must not be exactly 1: the Gray et al. O(1) "
            "sampler's exponent 1/(1-s) is singular there; use 0.99 "
            "or 1.01 instead");
    if (!(valueBytesMean > 0.0))
        throw ConfigError("value_bytes.mean must be positive");
    if (valueBytesSigma < 0.0)
        throw ConfigError("value_bytes.sigma must be non-negative");
}

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig &config,
                                     const Rng &rng_)
    : cfg(config), rng(rng_), isGet(config.getFraction),
      valueSize(config.valueBytesSigma > 0.0
                    ? LogNormal::fromMoments(config.valueBytesMean,
                                             config.valueBytesSigma)
                    : LogNormal(std::log(config.valueBytesMean), 0.0))
{
    cfg.validate();
    if (cfg.zipfSkew > 0.0)
        zipf = std::make_unique<Zipf>(cfg.keySpace, cfg.zipfSkew);
}

void
WorkloadGenerator::refill()
{
    // Per profile, draw in exactly the order fill() used to: op, key,
    // value size. The stream is private to this generator, so pulling
    // a chunk ahead of time yields bit-identical per-request variates.
    for (Drawn &d : batch) {
        d.isGet = isGet.sample(rng);
        d.keyIdx = zipf ? zipf->sample(rng) : rng.nextBelow(cfg.keySpace);
        d.valueBytes = static_cast<std::uint32_t>(
            std::clamp(valueSize.sample(rng), 1.0, 64.0 * 1024.0));
    }
    batchPos = 0;
}

void
WorkloadGenerator::fill(server::Request &request)
{
    if (batchPos == kBatch)
        refill();
    const Drawn &d = batch[batchPos++];

    request.op = d.isGet ? server::OpType::Get : server::OpType::Set;
    request.keyId = d.keyIdx;
    char key[server::kWireKeyCapacity];
    request.keyBytes =
        static_cast<std::uint32_t>(server::wireKey(d.keyIdx, key).size());
    request.valueBytes = d.valueBytes;
    request.requestBytes =
        cfg.requestOverheadBytes + request.keyBytes +
        (request.op == server::OpType::Set ? request.valueBytes : 0);
}

} // namespace core
} // namespace treadmill
