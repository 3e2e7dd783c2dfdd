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
 * models, identical converged repetitions, and identical capacity
 * searches and archives under Parallelism 1, 2, and 8.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/export.h"
#include "analysis/screening.h"
#include "core/experiment.h"
#include "drive/capacity_controller.h"
#include "drive/repeat.h"
#include "drive/study_driver.h"
#include "fault/plan.h"
#include "stats/convergence.h"
#include "store/writer.h"

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

/** Every result of @p runs, as a fixed-count drive::repeatRuns. */
std::vector<core::ExperimentResult>
runAll(const std::vector<core::ExperimentParams> &runs,
       exec::Parallelism parallelism)
{
    drive::Repetitions reps;
    reps.paramsOf = [&runs](std::size_t k) { return runs[k]; };
    reps.maxRuns = runs.size();
    reps.parallelism = parallelism;
    std::vector<core::ExperimentResult> results;
    drive::repeatRuns(reps, [&results](std::size_t,
                                       const core::ExperimentParams &,
                                       const core::ExperimentResult &r) {
        results.push_back(r);
    });
    return results;
}

TEST(DeterminismTest, FixedCountMatchesSerialAtEveryThreadCount)
{
    const auto runs = seededRuns(6);
    const auto serial = runAll(runs, exec::Parallelism::serial());
    ASSERT_EQ(serial.size(), runs.size());

    for (unsigned threads : {2u, 8u}) {
        const auto parallel = runAll(runs, exec::Parallelism{threads});
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
    const auto serial = runAll(runs, exec::Parallelism::serial());
    ASSERT_EQ(serial.size(), runs.size());

    for (unsigned threads : {2u, 8u}) {
        const auto parallel = runAll(runs, exec::Parallelism{threads});
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
    const auto first = runAll(runs, exec::Parallelism{8});
    const auto second = runAll(runs, exec::Parallelism{8});
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

TEST(DeterminismTest, ConvergedRepetitionIdenticalSerialVsParallel)
{
    // The S III-B procedure: fresh seeds until the running mean
    // settles. Waves past the stop point are discarded, so the kept
    // values match the serial loop's at every thread count.
    const core::ExperimentParams base = quickParams();
    drive::Repetitions reps;
    reps.paramsOf = [&base](std::size_t k) {
        core::ExperimentParams p = base;
        p.seed = base.seed + k * 7919 + 13;
        return p;
    };
    reps.minRuns = 3;
    reps.maxRuns = 6;
    reps.stop = [](const std::vector<double> &kept) {
        return stats::meanConverged(kept, 0.02, 3);
    };

    reps.parallelism = exec::Parallelism::serial();
    const auto serial = drive::repeatRuns(reps);

    for (unsigned threads : {2u, 8u}) {
        reps.parallelism = exec::Parallelism{threads};
        const auto parallel = drive::repeatRuns(reps);
        EXPECT_EQ(parallel, serial) << "threads " << threads;
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

/** Every file under @p dir, by relative path, with its bytes. */
std::map<std::string, std::string>
treeBytes(const std::filesystem::path &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        files[std::filesystem::relative(entry.path(), dir).string()] =
            std::string((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    }
    return files;
}

TEST(DeterminismTest, CapacitySearchIdenticalSerialVsParallel)
{
    // Two settings: the fixed bisection (maxRunsPerProbe ==
    // runsPerPoint) and the adaptive search, whose re-probes fan out in
    // waves at 8 threads and discard runs simulated past a verdict. A
    // discarded run must reach neither the result nor the archive.
    drive::CapacityControllerParams fixed;
    fixed.search.base = quickParams();
    fixed.search.sloUs = 400.0;
    fixed.search.maxIterations = 2;
    fixed.search.runsPerPoint = 3;
    fixed.maxRunsPerProbe = 3;

    drive::CapacityControllerParams adaptive = fixed;
    adaptive.search.runsPerPoint = 2;
    adaptive.maxRunsPerProbe = 6;
    adaptive.search.sloUs = 150.0;

    const std::filesystem::path root =
        std::filesystem::temp_directory_path() / "tmdeterminism_capacity";
    for (const auto &[label, params] :
         {std::pair{"fixed", fixed}, std::pair{"adaptive", adaptive}}) {
        std::vector<drive::CapacitySearchResult> results;
        std::vector<std::map<std::string, std::string>> archives;
        for (unsigned threads : {1u, 8u}) {
            drive::CapacityControllerParams run = params;
            run.search.parallelism = exec::Parallelism{threads};
            const std::filesystem::path dir =
                root / (std::string(label) + std::to_string(threads));
            std::filesystem::remove_all(dir);
            store::StudyMeta meta;
            meta.name = "capacity";
            meta.factors = {"utilization"};
            meta.quantiles = {0.5, 0.99};
            store::StudyWriter archive(dir.string(), meta);
            results.push_back(
                drive::CapacityController(run).search(&archive));
            archive.finish();
            archives.push_back(treeBytes(dir));
        }
        const drive::CapacitySearchResult &serial = results[0];
        const drive::CapacitySearchResult &parallel = results[1];
        EXPECT_DOUBLE_EQ(parallel.maxUtilization, serial.maxUtilization)
            << label;
        EXPECT_DOUBLE_EQ(parallel.latencyAtMaxUs, serial.latencyAtMaxUs)
            << label;
        EXPECT_EQ(parallel.totalRuns, serial.totalRuns) << label;
        ASSERT_EQ(parallel.probes.size(), serial.probes.size()) << label;
        bool reprobed = false;
        for (std::size_t i = 0; i < serial.probes.size(); ++i) {
            EXPECT_EQ(parallel.probes[i].perRunQuantileUs,
                      serial.probes[i].perRunQuantileUs)
                << label << " probe " << i;
            EXPECT_EQ(parallel.probes[i].earlyExit,
                      serial.probes[i].earlyExit)
                << label << " probe " << i;
            reprobed = reprobed ||
                       serial.probes[i].perRunQuantileUs.size() >
                           params.search.runsPerPoint;
        }
        // The adaptive setting must exercise the re-probe waves, or it
        // proves nothing about discarded runs.
        if (params.maxRunsPerProbe > params.search.runsPerPoint) {
            EXPECT_TRUE(reprobed) << label;
        }

        // Byte-identical archives: same files, same bytes.
        ASSERT_FALSE(archives[0].empty()) << label;
        EXPECT_EQ(archives[1].size(), archives[0].size()) << label;
        for (const auto &[name, bytes] : archives[0]) {
            const auto it = archives[1].find(name);
            ASSERT_NE(it, archives[1].end()) << label << " " << name;
            EXPECT_EQ(it->second, bytes) << label << " " << name;
        }
    }
    std::filesystem::remove_all(root);
}

} // namespace
} // namespace treadmill
