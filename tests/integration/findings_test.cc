/**
 * @file
 * End-to-end assertions of the paper's eight findings (Section V).
 *
 * Each test drives the full pipeline (simulated cluster, Treadmill
 * procedure, and where needed the attribution model) and checks the
 * qualitative behaviour the paper reports. Sample sizes are kept small
 * enough for CI; the bench binaries rerun the same experiments at
 * paper scale.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/attribution.h"
#include "core/experiment.h"
#include "drive/study_driver.h"
#include "stats/summary.h"

namespace treadmill {
namespace {

core::ExperimentParams
baseParams(double utilization)
{
    core::ExperimentParams params;
    params.targetUtilization = utilization;
    params.collector.warmUpSamples = 200;
    params.collector.calibrationSamples = 200;
    params.collector.measurementSamples = 2500;
    params.seed = 404;
    return params;
}

/** Shared low/high-load attribution fits (expensive; built once). */
const analysis::AttributionResult &
attributionAt(double utilization)
{
    static const auto build = [](double util) {
        analysis::AttributionParams params;
        params.base = baseParams(util);
        params.quantiles = {0.5, 0.9, 0.99};
        params.repsPerConfig = 3;
        params.bootstrapReplicates = 40;
        params.seed = 31;
        return drive::runAttribution(params);
    };
    static const analysis::AttributionResult low = build(0.15);
    static const analysis::AttributionResult high = build(0.65);
    return utilization < 0.5 ? low : high;
}

TEST(FindingsTest, F1_LatencyVarianceGrowsWithUtilization)
{
    // Finding 1: run-to-run and within-run variance rises with load,
    // as in M/M/1 where Var[N] = rho/(1-rho)^2.
    std::vector<double> lowP99s;
    std::vector<double> highP99s;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        auto low = baseParams(0.2);
        low.seed = seed * 17;
        auto high = baseParams(0.75);
        high.seed = seed * 17;
        lowP99s.push_back(core::runExperiment(low).aggregatedQuantile(
            0.99, core::AggregationKind::PerInstance));
        highP99s.push_back(core::runExperiment(high).aggregatedQuantile(
            0.99, core::AggregationKind::PerInstance));
    }
    EXPECT_GT(stats::stddev(highP99s), stats::stddev(lowP99s));
}

TEST(FindingsTest, F2_QuantileUncertaintyGrowsTowardTail)
{
    // Finding 2: standard errors rise from P50 to P99.
    const auto &model = attributionAt(0.65);
    EXPECT_GT(model.model(0.99).terms[0].standardError,
              model.model(0.5).terms[0].standardError);
    EXPECT_GT(model.model(0.9).terms[0].standardError * 3.0,
              model.model(0.5).terms[0].standardError);
}

TEST(FindingsTest, F3_OndemandHurtsAtLowLoad)
{
    // Finding 3: with the ondemand governor, low-load latency is
    // inflated by frequency transitions; the performance governor
    // (dvfs high) therefore helps much more at low load.
    const double lowImpact =
        attributionAt(0.15).averageFactorImpact(0.9, 2); // dvfs
    const double highImpact =
        attributionAt(0.65).averageFactorImpact(0.9, 2);
    EXPECT_LT(lowImpact, 0.0);         // performance governor helps
    EXPECT_LT(lowImpact, highImpact);  // ...most at low load
}

TEST(FindingsTest, F4_NicSpreadingHelpsTailUnderOndemandAtLowLoad)
{
    // Finding 4: with dvfs=ondemand at low load, all-nodes NIC
    // affinity reduces tail latency by stabilizing per-core
    // utilization (fewer frequency transitions).
    auto sameNode = baseParams(0.12);
    sameNode.collector.measurementSamples = 4000;
    auto allNodes = sameNode;
    allNodes.config.nic = hw::NicAffinity::AllNodes;

    double same = 0.0;
    double all = 0.0;
    std::uint64_t sameTransitions = 0;
    std::uint64_t allTransitions = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        sameNode.seed = 100 + seed;
        allNodes.seed = 100 + seed;
        const auto a = core::runExperiment(sameNode);
        const auto b = core::runExperiment(allNodes);
        same += a.aggregatedQuantile(
            0.99, core::AggregationKind::PerInstance);
        all += b.aggregatedQuantile(
            0.99, core::AggregationKind::PerInstance);
        sameTransitions += a.frequencyTransitions;
        allTransitions += b.frequencyTransitions;
    }
    EXPECT_LT(all, same);
    EXPECT_LT(allTransitions, sameTransitions);
}

TEST(FindingsTest, F5_InteractionsAreSubstantial)
{
    // Finding 5: some interaction coefficient is comparable to the
    // main effects (the paper highlights numa:dvfs and dvfs:nic).
    const auto &model = attributionAt(0.65).model(0.99);
    double maxMain = 0.0;
    for (std::size_t t : {1u, 2u, 4u, 8u})
        maxMain = std::max(maxMain, std::fabs(model.terms[t].estimate));
    double maxInteraction = 0.0;
    for (std::size_t t = 0; t < model.terms.size(); ++t) {
        const bool isMain =
            t == 0 || t == 1 || t == 2 || t == 4 || t == 8;
        if (!isMain)
            maxInteraction = std::max(
                maxInteraction, std::fabs(model.terms[t].estimate));
    }
    EXPECT_GT(maxInteraction, 0.3 * maxMain);
}

TEST(FindingsTest, F6_InterleaveHurtsAtHighLoad)
{
    // Finding 6: interleaved NUMA raises tail latency under load.
    EXPECT_GT(attributionAt(0.65).averageFactorImpact(0.99, 0), 0.0);
}

TEST(FindingsTest, F7_FactorImportanceDependsOnLoad)
{
    // Finding 7: dvfs dominates at low load, numa at high load.
    const auto &low = attributionAt(0.15);
    const auto &high = attributionAt(0.65);
    const double dvfsLow = std::fabs(low.averageFactorImpact(0.9, 2));
    const double numaLow = std::fabs(low.averageFactorImpact(0.9, 0));
    const double dvfsHigh = std::fabs(high.averageFactorImpact(0.9, 2));
    const double numaHigh = std::fabs(high.averageFactorImpact(0.9, 0));
    EXPECT_GT(dvfsLow, numaLow);
    EXPECT_GT(numaHigh, dvfsHigh);
}

TEST(FindingsTest, F8_TurboHelpsMcrouterMostAtLowLoad)
{
    // Finding 8: mcrouter's CPU-bound deserialization benefits from
    // turbo, and more at low load (thermal headroom).
    const auto run = [](double util, bool turbo, std::uint64_t seed) {
        core::ExperimentParams params = baseParams(util);
        params.kind = core::WorkloadKind::Mcrouter;
        params.config.turbo =
            turbo ? hw::TurboMode::On : hw::TurboMode::Off;
        params.config.dvfs = hw::DvfsGovernor::Performance;
        params.seed = seed;
        return core::runExperiment(params).aggregatedQuantile(
            0.9, core::AggregationKind::PerInstance);
    };
    double offLow = 0.0;
    double onLow = 0.0;
    for (std::uint64_t s = 1; s <= 2; ++s) {
        offLow += run(0.2, false, s);
        onLow += run(0.2, true, s);
    }
    EXPECT_LT(onLow, offLow); // turbo helps at low load
}

} // namespace
} // namespace treadmill
