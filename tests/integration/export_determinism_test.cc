/** @file Byte-identical export determinism: every serialized
 *  observability artifact -- span JSON, the Chrome trace, telemetry
 *  CSV, decomposition CSV, and the metrics snapshot -- must be
 *  identical whether the runs executed serially or fanned across
 *  threads. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.h"
#include "drive/repeat.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "util/strings.h"

namespace treadmill {
namespace core {
namespace {

ExperimentParams
tracedParams(std::uint32_t backends, std::uint64_t seed)
{
    ExperimentParams p;
    if (backends > 0) {
        p.kind = WorkloadKind::Mcrouter;
        p.cluster.backends = backends;
        p.cluster.replication = 2;
    }
    p.targetUtilization = 0.4;
    p.collector.warmUpSamples = 50;
    p.collector.calibrationSamples = 50;
    p.collector.measurementSamples = 400;
    p.trace.enabled = true;
    p.telemetry.enabled = true;
    p.telemetry.periodUs = 500.0;
    p.resilience.enabled = true;
    p.resilience.hedge = true;
    p.resilience.hedgeDelayUs = 2'000.0;
    p.seed = seed;
    p.deadline = seconds(5);
    return p;
}

/** Serialize every export of one result into a single byte string. */
std::string
exportsOf(const ExperimentResult &r)
{
    std::string all;
    all += obs::spanJson(r.spans);
    all += obs::chromeSpanJson(r.spans, r.faultWindows, &r.telemetry);
    all += obs::telemetryCsv(r.telemetry);
    all += obs::decompositionCsv(r.spans);
    all += r.metrics.dump();
    return all;
}

void
expectByteIdenticalAcrossThreads(std::uint32_t backends)
{
    const auto runAll = [backends](exec::Parallelism parallelism) {
        drive::Repetitions reps;
        reps.paramsOf = [backends](std::size_t i) {
            return tracedParams(backends, 31 + 17 * i);
        };
        reps.maxRuns = 4;
        reps.parallelism = parallelism;
        std::vector<ExperimentResult> results;
        drive::repeatRuns(reps, [&results](std::size_t,
                                           const ExperimentParams &,
                                           const ExperimentResult &r) {
            results.push_back(r);
        });
        return results;
    };
    const auto serial = runAll(exec::Parallelism::serial());
    const auto threaded = runAll(exec::Parallelism{4});
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_FALSE(serial[i].spans.empty()) << "run " << i;
        ASSERT_GT(serial[i].telemetry.ticks(), 0u) << "run " << i;
        // Byte-for-byte: the exports embed every stamp, so any
        // trajectory divergence would surface here.
        EXPECT_EQ(exportsOf(serial[i]), exportsOf(threaded[i]))
            << "run " << i;
    }
}

TEST(ExportDeterminismTest, ClusterRunExportsAreByteIdentical)
{
    expectByteIdenticalAcrossThreads(4);
}

TEST(ExportDeterminismTest, SingleBackendExportsAreByteIdentical)
{
    expectByteIdenticalAcrossThreads(0);
}

TEST(ExportDeterminismTest, ObservabilityDoesNotPerturbTheRun)
{
    // Spans + telemetry on vs fully off: the measured latencies and
    // the metrics snapshot must not move at all.
    ExperimentParams on = tracedParams(4, 77);
    ExperimentParams off = on;
    off.trace.enabled = false;
    off.telemetry.enabled = false;
    const auto a = runExperiment(on);
    const auto b = runExperiment(off);
    EXPECT_EQ(a.groundTruthUs, b.groundTruthUs);
    for (std::uint32_t s = 0; s < 4; ++s) {
        const std::string served = strprintf("backend%u.served", s);
        EXPECT_EQ(a.metrics.at("counters").at(served),
                  b.metrics.at("counters").at(served));
    }
    EXPECT_EQ(a.aggregatedQuantile(0.99, AggregationKind::PerInstance),
              b.aggregatedQuantile(0.99, AggregationKind::PerInstance));
    EXPECT_TRUE(b.spans.empty());
    EXPECT_EQ(b.telemetry.ticks(), 0u);
}

} // namespace
} // namespace core
} // namespace treadmill
