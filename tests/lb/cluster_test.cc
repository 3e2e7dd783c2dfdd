/** @file End-to-end multi-backend cluster runs through the experiment
 *  harness: determinism, per-backend accounting, failover under a
 *  crashed shard, and the classic-path invariant (zero backends means
 *  the cluster tier does not exist). */

#include "core/experiment.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "util/error.h"
#include "util/strings.h"

namespace treadmill {
namespace core {
namespace {

ExperimentParams
clusterParams(std::uint32_t backends)
{
    ExperimentParams p;
    p.kind = WorkloadKind::Mcrouter;
    p.targetUtilization = 0.4;
    p.config.dvfs = hw::DvfsGovernor::Performance;
    p.collector.warmUpSamples = 100;
    p.collector.calibrationSamples = 100;
    p.collector.measurementSamples = 800;
    p.seed = 17;
    p.cluster.backends = backends;
    return p;
}

/** Counter @p name from the run's registry snapshot; -1 when the run
 *  registered no such counter. */
std::int64_t
counter(const ExperimentResult &result, const std::string &name)
{
    const json::Value &counters = result.metrics.at("counters");
    return counters.contains(name) ? counters.at(name).asInt() : -1;
}

/** Counter @p pattern ("backend%u.served") of each of 4 backends. */
std::vector<std::int64_t>
perBackend(const ExperimentResult &result, const char *pattern)
{
    std::vector<std::int64_t> out;
    for (std::uint32_t b = 0; b < 4; ++b)
        out.push_back(counter(result, strprintf(pattern, b)));
    return out;
}

TEST(ClusterTest, RunsAndAccountsEveryBackend)
{
    const auto result = runExperiment(clusterParams(4));
    const auto served = perBackend(result, "backend%u.served");
    const auto dispatched = perBackend(result, "lb.backend%u.dispatched");
    for (std::uint32_t b = 0; b < 4; ++b) {
        EXPECT_GT(served[b], 0) << "backend " << b;
        EXPECT_GT(dispatched[b], 0) << "backend " << b;
    }
    // Every dispatched request reached its shard (no faults armed).
    EXPECT_EQ(counter(result, "lb.unroutable"), 0);
    EXPECT_EQ(counter(result, "lb.failovers"), 0);
    EXPECT_EQ(result.instancesAtTarget(), 8u);
}

TEST(ClusterTest, DeterministicForSameSeed)
{
    const auto a = runExperiment(clusterParams(4));
    const auto b = runExperiment(clusterParams(4));
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_EQ(a.groundTruthUs, b.groundTruthUs);
    EXPECT_EQ(a.aggregatedQuantile(0.99, AggregationKind::PerInstance),
              b.aggregatedQuantile(0.99, AggregationKind::PerInstance));
}

TEST(ClusterTest, ClassicPathHasNoClusterTier)
{
    auto p = clusterParams(0);
    const auto result = runExperiment(p);
    EXPECT_EQ(counter(result, "backend0.served"), -1);
    EXPECT_EQ(counter(result, "lb.backend0.dispatched"), -1);
    EXPECT_EQ(counter(result, "lb.queued"), -1);
}

TEST(ClusterTest, PolicyChangesRoutingUnderReplication)
{
    auto fcfs = clusterParams(4);
    fcfs.cluster.replication = 2;
    auto p2c = fcfs;
    p2c.cluster.policy = lb::PolicyKind::PowerOfTwo;

    const auto a = perBackend(runExperiment(fcfs), "lb.backend%u.dispatched");
    const auto b = perBackend(runExperiment(p2c), "lb.backend%u.dispatched");
    // Both serve the full load...
    const auto total = [](const std::vector<std::int64_t> &v) {
        return static_cast<double>(
            std::accumulate(v.begin(), v.end(), std::int64_t{0}));
    };
    EXPECT_GT(total(a), 0.0);
    EXPECT_NEAR(total(b), total(a), 0.05 * total(a));
    // ...but p2c spreads replicated keys where FCFS pins them to the
    // primary, so the per-backend split differs.
    EXPECT_NE(a, b);
}

TEST(ClusterTest, CrashedBackendFailsOverWithReplication)
{
    auto p = clusterParams(4);
    p.cluster.replication = 2;
    fault::FaultEvent crash;
    crash.kind = fault::FaultKind::ServerCrash;
    crash.backend = 1;
    crash.start = 0;
    crash.duration = seconds(100); // dark for the whole run
    p.faultPlan.events.push_back(crash);
    const auto result = runExperiment(p);
    // Backend 1 is dark for the whole run; its keys fail over to the
    // next replica instead of vanishing.
    const auto served = perBackend(result, "backend%u.served");
    EXPECT_EQ(served[1], 0);
    EXPECT_GT(counter(result, "lb.failovers"), 0);
    EXPECT_EQ(counter(result, "lb.unroutable"), 0);
    for (std::uint32_t b = 0; b < 4; ++b) {
        if (b != 1) {
            EXPECT_GT(served[b], 0);
        }
    }
}

TEST(ClusterTest, RejectsClusterOnNonRouterWorkloads)
{
    auto p = clusterParams(2);
    p.kind = WorkloadKind::Memcached;
    EXPECT_THROW(runExperiment(p), ConfigError);
}

} // namespace
} // namespace core
} // namespace treadmill
