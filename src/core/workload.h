/**
 * @file
 * Configurable workload characteristics (paper S III-A, "Configurable
 * workload"): the GET/SET mix, key popularity, and value sizes that a
 * load test drives, describable in a JSON file exactly as Treadmill's
 * workload configs are.
 */

#ifndef TREADMILL_CORE_WORKLOAD_H_
#define TREADMILL_CORE_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <memory>

#include "server/request.h"
#include "util/json.h"
#include "util/random_variates.h"
#include "util/rng.h"

namespace treadmill {
namespace core {

/** Declarative description of the request stream. */
struct WorkloadConfig {
    /** Fraction of requests that are GETs (rest are SETs). */
    double getFraction = 0.95;
    /** Number of distinct keys; must be >= 1 (an empty key space
     *  cannot be sampled and is rejected by validate()). */
    std::uint64_t keySpace = 100000;
    /** Zipf skew over keys; 0 selects uniform popularity. Exactly 1.0
     *  is rejected: the Gray et al. O(1) sampler inverts the zeta tail
     *  via an exponent 1/(1-s), which is singular at s = 1. Use a
     *  nearby value (0.99 or 1.01) for near-harmonic popularity. */
    double zipfSkew = 0.99;
    /** Mean of the (lognormal) value-size distribution, bytes. */
    double valueBytesMean = 100.0;
    /** Standard deviation of value sizes, bytes (0 = fixed size). */
    double valueBytesSigma = 60.0;
    /** Protocol + header overhead added to each request packet. */
    std::uint32_t requestOverheadBytes = 80;

    /**
     * Parse from a JSON document, e.g.:
     * {"get_fraction": 0.95, "key_space": 100000, "zipf_skew": 0.99,
     *  "value_bytes": {"mean": 100, "sigma": 60},
     *  "request_overhead_bytes": 80}
     * Missing keys keep their defaults.
     *
     * @throws ConfigError on malformed or out-of-range values.
     */
    static WorkloadConfig fromJson(const json::Value &doc);

    /** Serialize back to the JSON schema fromJson() accepts. */
    json::Value toJson() const;

    /** Validate ranges; throws ConfigError when inconsistent. */
    void validate() const;
};

/** Draws concrete requests from a WorkloadConfig. */
class WorkloadGenerator
{
  public:
    /**
     * @param config Workload description (copied).
     * @param rng Private randomness stream for this generator.
     */
    WorkloadGenerator(const WorkloadConfig &config, const Rng &rng);

    /**
     * Populate @p request with op, key id, sizes (everything except
     * sequence ids, timestamps, and connection assignment).
     *
     * Draws are served from a precomputed batch (see refill()): the
     * per-request sequence of variates is identical to drawing them
     * one at a time, so results are bit-exact with the unbatched
     * generator; the batch only advances this generator's private
     * stream ahead of consumption.
     */
    void fill(server::Request &request);

    const WorkloadConfig &config() const { return cfg; }

  private:
    /** One precomputed request profile. */
    struct Drawn {
        std::uint64_t keyIdx;
        std::uint32_t valueBytes;
        bool isGet;
    };

    /** Draw the next kBatch profiles in per-request order. */
    void refill();

    WorkloadConfig cfg;
    Rng rng;
    Bernoulli isGet;
    std::unique_ptr<Zipf> zipf; ///< Null for uniform popularity.
    LogNormal valueSize;

    /** Batched variates: one virtual-call-free array walk per fill()
     *  instead of three sampler invocations per request. */
    static constexpr std::size_t kBatch = 64;
    std::array<Drawn, kBatch> batch;
    std::size_t batchPos = kBatch; ///< kBatch = batch exhausted.
};

} // namespace core
} // namespace treadmill

#endif // TREADMILL_CORE_WORKLOAD_H_
