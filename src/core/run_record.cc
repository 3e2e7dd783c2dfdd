#include "core/run_record.h"

#include <algorithm>

#include "core/collector.h"
#include "util/checksum.h"
#include "util/strings.h"
#include "util/types.h"

namespace treadmill {
namespace core {

namespace {

/** Substream key for the record's merged reservoir ("RECR"). */
constexpr std::uint64_t kReservoirKey = 0x52454352ull;

void
field(std::string &canon, const char *name, double value)
{
    canon += strprintf("%s=%.17g;", name, value);
}

void
field(std::string &canon, const char *name, std::uint64_t value)
{
    canon += strprintf("%s=%llu;", name,
                       static_cast<unsigned long long>(value));
}

void
field(std::string &canon, const char *name, const std::string &value)
{
    canon += name;
    canon += '=';
    canon += value;
    canon += ';';
}

} // namespace

std::uint64_t
configDigest(const ExperimentParams &params)
{
    // A canonical text rendering of every field of ExperimentParams
    // that a run reads, except on purpose:
    //  - the seed (the digest names a distribution, the seed one draw);
    //  - trace and telemetry, which record without perturbing a run;
    //  - collector.trajectoryEvery/trajectoryQuantile, which only
    //    observe the collector;
    //  - TesterSpec's name, histogram, aggregation, repeatsExperiments
    //    and general: Table I traits runExperiment never reads (the
    //    run's histogram kind is collector.histogram).
    // Order and formatting are part of the digest definition: a change
    // to either changes every archived digest.
    std::string canon;
    canon.reserve(1024);
    field(canon, "kind",
          static_cast<std::uint64_t>(params.kind));
    field(canon, "workload", params.workload.toJson().dump());
    field(canon, "hwconfig", params.config.bits());
    field(canon, "rps", params.requestsPerSecond);
    field(canon, "util", params.targetUtilization);

    const TesterSpec &t = params.tester;
    field(canon, "clients", static_cast<std::uint64_t>(t.clientMachines));
    field(canon, "loop", static_cast<std::uint64_t>(t.loop));
    field(canon, "slots",
          static_cast<std::uint64_t>(t.connectionsPerClient));
    field(canon, "ratelim",
          static_cast<std::uint64_t>(t.rateLimitedClosedLoop));

    const SampleCollector::Params &col = params.collector;
    field(canon, "warmup", col.warmUpSamples);
    field(canon, "calib", col.calibrationSamples);
    field(canon, "measure", col.measurementSamples);
    field(canon, "histkind", static_cast<std::uint64_t>(col.histogram));
    field(canon, "slo", col.staticLo);
    field(canon, "shi", col.staticHi);
    field(canon, "sbins", static_cast<std::uint64_t>(col.staticBins));
    field(canon, "abins",
          static_cast<std::uint64_t>(col.adaptive.binCount));
    field(canon, "atrig", col.adaptive.overflowTrigger);
    field(canon, "ahead", col.adaptive.calibrationHeadroom);

    field(canon, "remote",
          static_cast<std::uint64_t>(params.oneRemoteRackClient));
    field(canon, "csend", params.clientSendCostUs);
    field(canon, "crecv", params.clientReceiveCostUs);
    field(canon, "deadline",
          static_cast<std::uint64_t>(params.deadline));

    const ClusterParams &cl = params.cluster;
    field(canon, "backends", static_cast<std::uint64_t>(cl.backends));
    field(canon, "repl", static_cast<std::uint64_t>(cl.replication));
    field(canon, "policy", static_cast<std::uint64_t>(cl.policy));

    const ResiliencePolicy &res = params.resilience;
    field(canon, "res",
          static_cast<std::uint64_t>(res.enabled));
    if (res.enabled) {
        field(canon, "timeout", res.timeoutUs);
        field(canon, "retries",
              static_cast<std::uint64_t>(res.maxRetries));
        field(canon, "backoff", res.backoffBaseUs);
        field(canon, "bcap", res.backoffCapUs);
        field(canon, "jitter", res.jitterFraction);
        field(canon, "hedge",
              static_cast<std::uint64_t>(res.hedge));
        field(canon, "hdelay", res.hedgeDelayUs);
    }

    field(canon, "faults",
          static_cast<std::uint64_t>(params.faultPlan.events.size()));
    for (const fault::FaultEvent &ev : params.faultPlan.events) {
        field(canon, "fk", static_cast<std::uint64_t>(ev.kind));
        field(canon, "fs", static_cast<std::uint64_t>(ev.start));
        field(canon, "fd", static_cast<std::uint64_t>(ev.duration));
        field(canon, "ft", ev.target);
        field(canon, "fb",
              static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(ev.backend)));
        field(canon, "fp", static_cast<std::uint64_t>(ev.period));
        field(canon, "fc",
              static_cast<std::uint64_t>(ev.repeatCount));
        field(canon, "fl", ev.lossProbability);
        field(canon, "fbw", ev.bandwidthFactor);
        field(canon, "fxl", static_cast<std::uint64_t>(ev.extraLatency));
        field(canon, "fwu", static_cast<std::uint64_t>(ev.warmup));
        field(canon, "fwp", static_cast<std::uint64_t>(ev.warmupPenalty));
        field(canon, "firq", ev.irqCostFactor);
    }

    return fnv1a64(canon);
}

store::RunRecord
toRunRecord(const ExperimentParams &params,
            const ExperimentResult &result,
            std::vector<double> factorLevels,
            const RunRecordOptions &options)
{
    store::RunRecord rec;
    rec.seed = params.seed;
    rec.configDigest = configDigest(params);
    rec.factorLevels = std::move(factorLevels);

    std::vector<double> taus = options.quantiles;
    std::sort(taus.begin(), taus.end());
    rec.quantileTaus = taus;
    rec.quantileUs.reserve(taus.size());
    for (double tau : taus)
        rec.quantileUs.push_back(
            result.aggregatedQuantile(tau, AggregationKind::PerInstance));

    // Merge the per-instance reservoirs into one run-level uniform
    // sample of the collector's capacity, weighting by each instance's
    // measured stream length. The merge Rng derives from the run seed
    // alone, so the record's bytes are a pure function of (params,
    // seed).
    stats::ReservoirSampler merged = stats::ReservoirSampler::restored(
        SampleCollector::kReservoirCapacity,
        Rng(params.seed).substream(kReservoirKey), {}, 0);
    for (const InstanceReport &instance : result.instances) {
        if (instance.rawSamples.empty())
            continue;
        const std::size_t kept = instance.rawSamples.size();
        const std::uint64_t streamed =
            std::max<std::uint64_t>(instance.measured, kept);
        merged.merge(stats::ReservoirSampler::restored(
            std::max<std::size_t>(kept, 1),
            Rng(params.seed).substream(kReservoirKey + 1), // unused
            instance.rawSamples, streamed));
    }
    rec.reservoir = merged.samples();
    rec.reservoirSeen = merged.seen();
    rec.reservoirCapacity = merged.capacity();

    rec.targetRps = result.targetRps;
    rec.achievedRps = result.achievedRps;
    rec.serverUtilization = result.serverUtilization;
    rec.simulatedSeconds =
        static_cast<double>(result.simulatedTime) * 1e-9;
    rec.metricsJson = result.metrics.dump();
    return rec;
}

} // namespace core
} // namespace treadmill
