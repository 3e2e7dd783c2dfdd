/**
 * @file
 * The determinism suite: parallel execution must be bit-exact with
 * the legacy serial path.
 *
 * The guarantee rests on two invariants documented in DESIGN.md:
 * every run derives all of its state (Simulation, Rng streams,
 * collectors) from its own seed, and results land in index-addressed
 * slots. These tests pin both: the same seeds must produce identical
 * ExperimentResult quantiles, identical hardware-study observations and
 * models, and identical capacity searches under Parallelism 1, 2, and
 * 8.
 */

#include <gtest/gtest.h>

#include <vector>

#include "analysis/export.h"
#include "analysis/screening.h"
#include "core/experiment.h"
#include "drive/capacity_controller.h"
#include "drive/study_driver.h"
#include "fault/plan.h"

namespace treadmill {
namespace {

core::ExperimentParams
quickParams()
{
    core::ExperimentParams p;
    p.targetUtilization = 0.5;
    p.collector.warmUpSamples = 50;
    p.collector.calibrationSamples = 50;
    p.collector.measurementSamples = 400;
    p.seed = 21;
    return p;
}

/** The per-run seeds used by every suite below. */
std::vector<core::ExperimentParams>
seededRuns(std::size_t n)
{
    std::vector<core::ExperimentParams> runs;
    for (std::size_t i = 0; i < n; ++i) {
        core::ExperimentParams p = quickParams();
        p.seed = 1000 + i * 37;
        runs.push_back(std::move(p));
    }
    return runs;
}

TEST(DeterminismTest, RunExperimentsMatchesSerialAtEveryThreadCount)
{
    const auto runs = seededRuns(6);
    const auto serial =
        core::runExperiments(runs, exec::Parallelism::serial());
    ASSERT_EQ(serial.size(), runs.size());

    for (unsigned threads : {2u, 8u}) {
        const auto parallel =
            core::runExperiments(runs, exec::Parallelism{threads});
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            for (double q : {0.5, 0.9, 0.99}) {
                EXPECT_DOUBLE_EQ(
                    serial[i].aggregatedQuantile(
                        q, core::AggregationKind::PerInstance),
                    parallel[i].aggregatedQuantile(
                        q, core::AggregationKind::PerInstance))
                    << "run " << i << " q " << q << " threads "
                    << threads;
            }
            EXPECT_EQ(serial[i].simulatedTime,
                      parallel[i].simulatedTime);
            EXPECT_DOUBLE_EQ(serial[i].achievedRps,
                             parallel[i].achievedRps);
            EXPECT_EQ(serial[i].groundTruthUs,
                      parallel[i].groundTruthUs);
        }
    }
}

/** Every fault class plus the full resilience policy in one schedule:
 *  the injector's loss Rng streams and timed windows must derive only
 *  from the run seed, never from scheduling order. */
std::vector<core::ExperimentParams>
faultedRuns(std::size_t n)
{
    fault::FaultPlan plan;
    fault::FaultEvent stall;
    stall.kind = fault::FaultKind::ServerStall;
    stall.start = milliseconds(4);
    stall.duration = milliseconds(1);
    stall.period = milliseconds(6);
    stall.repeatCount = 4;
    plan.events.push_back(stall);
    fault::FaultEvent loss;
    loss.kind = fault::FaultKind::LinkLoss;
    loss.target = "client0-uplink";
    loss.start = milliseconds(2);
    loss.duration = milliseconds(10);
    loss.lossProbability = 0.3;
    plan.events.push_back(loss);
    fault::FaultEvent storm;
    storm.kind = fault::FaultKind::NicInterruptStorm;
    storm.start = milliseconds(8);
    storm.duration = milliseconds(5);
    storm.irqCostFactor = 10.0;
    plan.events.push_back(storm);

    auto runs = seededRuns(n);
    for (auto &p : runs) {
        p.faultPlan = plan;
        p.resilience.enabled = true;
        p.resilience.timeoutUs = 5000.0;
        p.resilience.maxRetries = 2;
        p.resilience.hedge = true;
        p.resilience.hedgeDelayUs = 2000.0;
    }
    return runs;
}

TEST(DeterminismTest, FaultedRunsMatchSerialAtEveryThreadCount)
{
    const auto runs = faultedRuns(4);
    const auto serial =
        core::runExperiments(runs, exec::Parallelism::serial());
    ASSERT_EQ(serial.size(), runs.size());

    for (unsigned threads : {2u, 8u}) {
        const auto parallel =
            core::runExperiments(runs, exec::Parallelism{threads});
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            // Bit-exact ground truth, timing, and metrics snapshot --
            // drop/retry/hedge counters included.
            EXPECT_EQ(serial[i].groundTruthUs,
                      parallel[i].groundTruthUs)
                << "run " << i << " threads " << threads;
            EXPECT_EQ(serial[i].simulatedTime,
                      parallel[i].simulatedTime);
            EXPECT_TRUE(serial[i].metrics == parallel[i].metrics)
                << "run " << i << " threads " << threads;
            for (double q : {0.5, 0.99}) {
                EXPECT_DOUBLE_EQ(
                    serial[i].aggregatedQuantile(
                        q, core::AggregationKind::PerInstance),
                    parallel[i].aggregatedQuantile(
                        q, core::AggregationKind::PerInstance));
            }
        }
    }
}

TEST(DeterminismTest, SameSeedSameResultAcrossRepeatedParallelRuns)
{
    const auto runs = seededRuns(4);
    const auto first = core::runExperiments(runs, exec::Parallelism{8});
    const auto second =
        core::runExperiments(runs, exec::Parallelism{8});
    for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(first[i].groundTruthUs, second[i].groundTruthUs);
        EXPECT_EQ(first[i].simulatedTime, second[i].simulatedTime);
    }
}

TEST(DeterminismTest, HardwareStudyIdenticalSerialVsParallel)
{
    analysis::AttributionParams params;
    params.base = quickParams();
    params.quantiles = {0.5, 0.99};
    params.repsPerConfig = 5; // 80 experiments (acceptance floor)
    params.bootstrapReplicates = 20;
    params.seed = 5;

    params.parallelism = exec::Parallelism::serial();
    const auto serial = drive::runAttribution(params);

    for (unsigned threads : {2u, 8u}) {
        params.parallelism = exec::Parallelism{threads};
        const auto parallel = drive::runAttribution(params);
        ASSERT_EQ(parallel.observations.size(),
                  serial.observations.size());
        for (std::size_t i = 0; i < serial.observations.size(); ++i) {
            const analysis::Observation &a = parallel.observations[i];
            const analysis::Observation &b = serial.observations[i];
            EXPECT_EQ(a.runSeed, b.runSeed);
            EXPECT_EQ(a.config.index(), b.config.index());
            EXPECT_EQ(a.quantileUs, b.quantileUs);
            EXPECT_EQ(a.serverUtilization, b.serverUtilization);
        }
        EXPECT_EQ(analysis::toJson(parallel.models).dump(),
                  analysis::toJson(serial.models).dump())
            << "threads " << threads;
    }
}

TEST(DeterminismTest, RepeatedProcedureIdenticalSerialVsParallel)
{
    core::ProcedureParams params;
    params.base = quickParams();
    params.minRuns = 3;
    params.maxRuns = 6;

    params.parallelism = exec::Parallelism::serial();
    const auto serial = core::repeatedProcedure(params);

    for (unsigned threads : {2u, 8u}) {
        params.parallelism = exec::Parallelism{threads};
        const auto parallel = core::repeatedProcedure(params);
        EXPECT_EQ(parallel.perRunMetric, serial.perRunMetric)
            << "threads " << threads;
        EXPECT_EQ(parallel.runs, serial.runs);
        EXPECT_EQ(parallel.converged, serial.converged);
        EXPECT_DOUBLE_EQ(parallel.mean, serial.mean);
        EXPECT_DOUBLE_EQ(parallel.stddev, serial.stddev);
    }
}

TEST(DeterminismTest, ScreeningIdenticalSerialVsParallel)
{
    analysis::AttributionParams collect;
    collect.base = quickParams();
    collect.quantiles = {0.99};
    // Two reps: one rep per cell saturates the 16-term model the
    // study fits, and its bootstrap cannot refit.
    collect.repsPerConfig = 2;
    collect.seed = 9;
    collect.bootstrapReplicates = 10;
    collect.parallelism = exec::Parallelism{8};
    const auto observations =
        drive::runAttribution(collect).observations;

    analysis::ScreeningParams params;
    params.tau = 0.99;
    params.permutations = 200;

    params.parallelism = exec::Parallelism::serial();
    const auto serial =
        analysis::screenFactors(observations, params);

    for (unsigned threads : {2u, 8u}) {
        params.parallelism = exec::Parallelism{threads};
        const auto parallel =
            analysis::screenFactors(observations, params);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t f = 0; f < serial.size(); ++f) {
            EXPECT_EQ(parallel[f].name, serial[f].name);
            EXPECT_DOUBLE_EQ(parallel[f].effectUs, serial[f].effectUs);
            EXPECT_DOUBLE_EQ(parallel[f].pValue, serial[f].pValue);
            EXPECT_EQ(parallel[f].significant, serial[f].significant);
        }
    }
}

TEST(DeterminismTest, FixedCapacitySearchIdenticalSerialVsParallel)
{
    // The fixed bisection: the controller with maxRunsPerProbe ==
    // runsPerPoint.
    drive::CapacityControllerParams params;
    params.search.base = quickParams();
    params.search.sloUs = 400.0;
    params.search.maxIterations = 2;
    params.search.runsPerPoint = 3;
    params.maxRunsPerProbe = 3;

    params.search.parallelism = exec::Parallelism::serial();
    const auto serial = drive::CapacityController(params).search();

    params.search.parallelism = exec::Parallelism{8};
    const auto parallel = drive::CapacityController(params).search();

    EXPECT_DOUBLE_EQ(parallel.maxUtilization, serial.maxUtilization);
    EXPECT_DOUBLE_EQ(parallel.latencyAtMaxUs, serial.latencyAtMaxUs);
    ASSERT_EQ(parallel.probes.size(), serial.probes.size());
    for (std::size_t i = 0; i < serial.probes.size(); ++i) {
        EXPECT_EQ(parallel.probes[i].perRunQuantileUs,
                  serial.probes[i].perRunQuantileUs);
    }
}

} // namespace
} // namespace treadmill
