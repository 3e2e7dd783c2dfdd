/** @file Tests for core::configDigest, the archive's run identity. */

#include "core/run_record.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <utility>
#include <vector>

namespace treadmill {
namespace core {
namespace {

using Perturb = std::pair<const char *, std::function<void(ExperimentParams &)>>;

/** A config that hashes every optional section: resilience on and one
 *  fault event, so their fields are part of the digest. */
ExperimentParams
baseParams()
{
    ExperimentParams p;
    p.resilience.enabled = true;
    p.resilience.timeoutUs = 3000.0;
    p.faultPlan.events.emplace_back();
    return p;
}

fault::FaultEvent &
event(ExperimentParams &p)
{
    return p.faultPlan.events.front();
}

TEST(ConfigDigestTest, EveryFieldARunReadsChangesItAndNothingElseDoes)
{
    const std::uint64_t base = configDigest(baseParams());

    // Each field a run reads, perturbed one at a time.
    const std::vector<Perturb> covered = {
        {"kind", [](auto &p) { p.kind = WorkloadKind::Mcrouter; }},
        {"workload.getFraction",
         [](auto &p) { p.workload.getFraction = 0.5; }},
        {"workload.keySpace", [](auto &p) { p.workload.keySpace = 7; }},
        {"workload.zipfSkew", [](auto &p) { p.workload.zipfSkew = 0.5; }},
        {"workload.valueBytesMean",
         [](auto &p) { p.workload.valueBytesMean = 50.0; }},
        {"workload.valueBytesSigma",
         [](auto &p) { p.workload.valueBytesSigma = 0.0; }},
        {"workload.requestOverheadBytes",
         [](auto &p) { p.workload.requestOverheadBytes = 81; }},
        {"config.numa",
         [](auto &p) { p.config.numa = hw::NumaPolicy::Interleave; }},
        {"config.turbo", [](auto &p) { p.config.turbo = hw::TurboMode::On; }},
        {"config.dvfs",
         [](auto &p) { p.config.dvfs = hw::DvfsGovernor::Performance; }},
        {"config.nic",
         [](auto &p) { p.config.nic = hw::NicAffinity::AllNodes; }},
        {"requestsPerSecond", [](auto &p) { p.requestsPerSecond = 1e5; }},
        {"targetUtilization", [](auto &p) { p.targetUtilization = 0.5; }},
        {"tester.clientMachines",
         [](auto &p) { p.tester.clientMachines = 4; }},
        {"tester.loop",
         [](auto &p) { p.tester.loop = ControlLoop::ClosedLoop; }},
        {"tester.connectionsPerClient",
         [](auto &p) { p.tester.connectionsPerClient = 0; }},
        {"tester.rateLimitedClosedLoop",
         [](auto &p) { p.tester.rateLimitedClosedLoop = false; }},
        {"collector.warmUpSamples",
         [](auto &p) { p.collector.warmUpSamples = 1; }},
        {"collector.calibrationSamples",
         [](auto &p) { p.collector.calibrationSamples = 1; }},
        {"collector.measurementSamples",
         [](auto &p) { p.collector.measurementSamples = 1; }},
        {"collector.histogram",
         [](auto &p) { p.collector.histogram = HistogramKind::Raw; }},
        {"collector.staticLo", [](auto &p) { p.collector.staticLo = 1.0; }},
        {"collector.staticHi",
         [](auto &p) { p.collector.staticHi = 2000.0; }},
        {"collector.staticBins",
         [](auto &p) { p.collector.staticBins = 64; }},
        {"collector.adaptive.binCount",
         [](auto &p) { p.collector.adaptive.binCount = 64; }},
        {"collector.adaptive.overflowTrigger",
         [](auto &p) { p.collector.adaptive.overflowTrigger = 8; }},
        {"collector.adaptive.calibrationHeadroom",
         [](auto &p) { p.collector.adaptive.calibrationHeadroom = 3.0; }},
        {"oneRemoteRackClient",
         [](auto &p) { p.oneRemoteRackClient = true; }},
        {"clientSendCostUs", [](auto &p) { p.clientSendCostUs = 2.0; }},
        {"clientReceiveCostUs",
         [](auto &p) { p.clientReceiveCostUs = 2.0; }},
        {"deadline", [](auto &p) { p.deadline = seconds(1); }},
        {"cluster.backends", [](auto &p) { p.cluster.backends = 4; }},
        {"cluster.replication", [](auto &p) { p.cluster.replication = 2; }},
        {"cluster.policy",
         [](auto &p) { p.cluster.policy = lb::PolicyKind::PowerOfTwo; }},
        {"resilience.enabled",
         [](auto &p) { p.resilience.enabled = false; }},
        {"resilience.timeoutUs",
         [](auto &p) { p.resilience.timeoutUs = 100.0; }},
        {"resilience.maxRetries",
         [](auto &p) { p.resilience.maxRetries = 2; }},
        {"resilience.backoffBaseUs",
         [](auto &p) { p.resilience.backoffBaseUs = 1.0; }},
        {"resilience.backoffCapUs",
         [](auto &p) { p.resilience.backoffCapUs = 1.0; }},
        {"resilience.jitterFraction",
         [](auto &p) { p.resilience.jitterFraction = 0.5; }},
        {"resilience.hedge", [](auto &p) { p.resilience.hedge = true; }},
        {"resilience.hedgeDelayUs",
         [](auto &p) { p.resilience.hedgeDelayUs = 1.0; }},
        {"faultPlan.events", [](auto &p) { p.faultPlan.events.clear(); }},
        {"fault.kind",
         [](auto &p) { event(p).kind = fault::FaultKind::LinkLoss; }},
        {"fault.start", [](auto &p) { event(p).start = 1; }},
        {"fault.duration", [](auto &p) { event(p).duration = 1; }},
        {"fault.target", [](auto &p) { event(p).target = "client0"; }},
        {"fault.backend", [](auto &p) { event(p).backend = 0; }},
        {"fault.period", [](auto &p) { event(p).period = 1; }},
        {"fault.repeatCount", [](auto &p) { event(p).repeatCount = 2; }},
        {"fault.lossProbability",
         [](auto &p) { event(p).lossProbability = 0.5; }},
        {"fault.bandwidthFactor",
         [](auto &p) { event(p).bandwidthFactor = 0.5; }},
        {"fault.extraLatency", [](auto &p) { event(p).extraLatency = 1; }},
        {"fault.warmup", [](auto &p) { event(p).warmup = 1; }},
        {"fault.warmupPenalty", [](auto &p) { event(p).warmupPenalty = 1; }},
        {"fault.irqCostFactor",
         [](auto &p) { event(p).irqCostFactor = 2.0; }},
    };
    std::set<std::uint64_t> seen{base};
    for (const auto &[name, perturb] : covered) {
        ExperimentParams p = baseParams();
        perturb(p);
        const std::uint64_t digest = configDigest(p);
        EXPECT_NE(digest, base) << name << " is not in the digest";
        EXPECT_TRUE(seen.insert(digest).second)
            << name << " collides with another perturbation";
    }

    // What the digest leaves out on purpose: the seed, and settings
    // that observe a run or that the run never reads.
    const std::vector<Perturb> omitted = {
        {"seed", [](auto &p) { p.seed = 99; }},
        {"trace.enabled", [](auto &p) { p.trace.enabled = true; }},
        {"trace.sampleEvery", [](auto &p) { p.trace.sampleEvery = 7; }},
        {"trace.maxTraces", [](auto &p) { p.trace.maxTraces = 7; }},
        {"telemetry.enabled", [](auto &p) { p.telemetry.enabled = true; }},
        {"telemetry.periodUs", [](auto &p) { p.telemetry.periodUs = 7.0; }},
        {"telemetry.maxSamples",
         [](auto &p) { p.telemetry.maxSamples = 7; }},
        {"collector.trajectoryEvery",
         [](auto &p) { p.collector.trajectoryEvery = 100; }},
        {"collector.trajectoryQuantile",
         [](auto &p) { p.collector.trajectoryQuantile = 0.5; }},
        {"tester.name", [](auto &p) { p.tester.name = "ycsb"; }},
        {"tester.histogram",
         [](auto &p) { p.tester.histogram = HistogramKind::Static; }},
        {"tester.aggregation",
         [](auto &p) { p.tester.aggregation = AggregationKind::Holistic; }},
        {"tester.repeatsExperiments",
         [](auto &p) { p.tester.repeatsExperiments = false; }},
        {"tester.general", [](auto &p) { p.tester.general = false; }},
    };
    for (const auto &[name, perturb] : omitted) {
        ExperimentParams p = baseParams();
        perturb(p);
        EXPECT_EQ(configDigest(p), base) << name << " moved the digest";
    }
}

} // namespace
} // namespace core
} // namespace treadmill
