/**
 * @file
 * Tests for the drive layer: the repetition loop (stop rules, the
 * speculation bound, Parallelism-independent kept runs, validation),
 * adaptive capacity search (it must beat the fixed bisection's run
 * budget) and the fixed bisection as one of its settings, parameter
 * validation, and StudyDriver's determinism, per-run metrics,
 * progress and failure propagation across parallelism settings.
 */

#include "drive/capacity_controller.h"
#include "drive/repeat.h"
#include "drive/study_driver.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/export.h"
#include "stats/convergence.h"
#include "stats/summary.h"
#include "store/reader.h"
#include "util/error.h"
#include "util/strings.h"

namespace treadmill {
namespace drive {
namespace {

namespace fs = std::filesystem;

core::ExperimentParams
quickRun()
{
    core::ExperimentParams p;
    p.targetUtilization = 0.5;
    p.collector.warmUpSamples = 50;
    p.collector.calibrationSamples = 50;
    p.collector.measurementSamples = 400;
    p.seed = 21;
    return p;
}

/** Repetitions of quickRun() with seed 100 + 37k that count every
 *  simulated run (discarded ones included) in @p simulated. */
Repetitions
countedRuns(std::atomic<std::size_t> &simulated)
{
    Repetitions reps;
    reps.paramsOf = [&simulated](std::size_t k) {
        ++simulated;
        core::ExperimentParams p = quickRun();
        p.seed = 100 + 37 * k;
        return p;
    };
    return reps;
}

/** One onRun call: the run index and its ground truth. */
using KeptRun = std::pair<std::size_t, std::vector<double>>;

TEST(RepeatRunsTest, RuleFiringMidWaveKeepsTheSameRunsAtEveryParallelism)
{
    // The rule fires at the fifth kept run: the last of a wave at
    // Parallelism 1, the first of the third wave at 2, and mid-way
    // through the second wave at 8.
    std::vector<std::vector<double>> values;
    std::vector<std::vector<KeptRun>> seen;
    for (unsigned threads : {1u, 2u, 8u}) {
        std::atomic<std::size_t> simulated{0};
        Repetitions reps = countedRuns(simulated);
        reps.minRuns = 2;
        reps.maxRuns = 12;
        reps.stop = [](const std::vector<double> &kept) {
            return kept.size() >= 5;
        };
        reps.parallelism.threads = threads;
        std::vector<KeptRun> kept;
        const std::vector<double> p99s = repeatRuns(
            reps, [&kept](std::size_t k, const core::ExperimentParams &,
                          const core::ExperimentResult &r) {
                kept.emplace_back(k, r.groundTruthUs);
            });
        ASSERT_EQ(p99s.size(), 5u) << "threads " << threads;
        ASSERT_EQ(kept.size(), 5u) << "threads " << threads;
        for (std::size_t k = 0; k < kept.size(); ++k)
            EXPECT_EQ(kept[k].first, k) << "threads " << threads;
        // At most lanes - 1 runs are simulated past the stop, and none
        // on the serial path.
        EXPECT_GE(simulated.load(), 5u);
        EXPECT_LE(simulated.load() - 5u, threads - 1u)
            << "threads " << threads;
        values.push_back(p99s);
        seen.push_back(std::move(kept));
    }
    for (std::size_t i = 1; i < values.size(); ++i) {
        EXPECT_EQ(values[i], values[0]);
        EXPECT_EQ(seen[i], seen[0]);
    }
}

TEST(RepeatRunsTest, WithoutARuleExactlyMaxRunsHappen)
{
    for (unsigned threads : {1u, 8u}) {
        std::atomic<std::size_t> simulated{0};
        Repetitions reps = countedRuns(simulated);
        reps.maxRuns = 3;
        reps.parallelism.threads = threads;
        std::size_t observed = 0;
        const std::vector<double> p99s = repeatRuns(
            reps, [&observed](std::size_t, const core::ExperimentParams &,
                              const core::ExperimentResult &) {
                ++observed;
            });
        EXPECT_EQ(p99s.size(), 3u) << "threads " << threads;
        EXPECT_EQ(observed, 3u) << "threads " << threads;
        EXPECT_EQ(simulated.load(), 3u) << "threads " << threads;
    }
}

TEST(RepeatRunsTest, MinRunsGatesTheRule)
{
    // A rule that would stop at once is first asked at minRuns kept
    // values, so exactly minRuns runs are kept.
    std::atomic<std::size_t> simulated{0};
    Repetitions reps = countedRuns(simulated);
    reps.minRuns = 5;
    reps.maxRuns = 10;
    std::vector<std::size_t> askedAt;
    reps.stop = [&askedAt](const std::vector<double> &kept) {
        askedAt.push_back(kept.size());
        return stats::meanConverged(kept, 0.5, 1);
    };
    EXPECT_EQ(repeatRuns(reps).size(), 5u);
    EXPECT_EQ(askedAt, (std::vector<std::size_t>{5}));
}

TEST(RepeatRunsTest, ConvergenceRuleStopsTheProcedure)
{
    // The S III-B procedure: fresh seeds until the running mean of the
    // per-run P99 settles.
    core::ExperimentParams base = quickRun();
    base.targetUtilization = 0.6;
    base.collector.warmUpSamples = 200;
    base.collector.calibrationSamples = 200;
    base.collector.measurementSamples = 800;
    base.seed = 11;
    Repetitions reps;
    reps.paramsOf = [&base](std::size_t k) {
        core::ExperimentParams p = base;
        p.seed = base.seed + k * 7919 + 13;
        return p;
    };
    reps.minRuns = 4;
    reps.maxRuns = 20;
    reps.stop = [](const std::vector<double> &kept) {
        return stats::meanConverged(kept, 0.05, 3);
    };
    std::size_t observed = 0;
    const std::vector<double> p99s = repeatRuns(
        reps, [&observed](std::size_t, const core::ExperimentParams &,
                          const core::ExperimentResult &) {
            ++observed;
        });
    EXPECT_GE(p99s.size(), 4u);
    EXPECT_GT(stats::mean(p99s), 0.0);
    EXPECT_EQ(observed, p99s.size());
    // Converged, not cut off at maxRuns.
    EXPECT_LT(p99s.size(), 20u);
    EXPECT_TRUE(stats::meanConverged(p99s, 0.05, 3));
}

TEST(RepeatRunsTest, ValidatesEveryField)
{
    const auto expectNamed = [](const Repetitions &reps,
                                const char *field) {
        try {
            repeatRuns(reps);
            ADD_FAILURE() << "accepted a bad " << field;
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << e.what();
        }
    };
    std::atomic<std::size_t> simulated{0};
    Repetitions bad = countedRuns(simulated);
    bad.maxRuns = 0;
    bad.minRuns = 0;
    expectNamed(bad, "maxRuns");
    bad = countedRuns(simulated);
    bad.maxRuns = 3;
    bad.minRuns = 0;
    expectNamed(bad, "minRuns");
    bad.minRuns = 4;
    expectNamed(bad, "minRuns");
    bad = countedRuns(simulated);
    bad.paramsOf = {};
    expectNamed(bad, "paramsOf");
    EXPECT_EQ(simulated.load(), 0u);
}

CapacityControllerParams
quickSearch(double sloUs)
{
    CapacityControllerParams params;
    params.search.base.collector.warmUpSamples = 100;
    params.search.base.collector.calibrationSamples = 100;
    params.search.base.collector.measurementSamples = 1200;
    params.search.base.config.dvfs = hw::DvfsGovernor::Performance;
    params.search.tau = 0.99;
    params.search.sloUs = sloUs;
    params.search.maxIterations = 4;
    params.search.runsPerPoint = 2;
    params.search.seed = 8;
    params.maxRunsPerProbe = 4;
    return params;
}

TEST(CapacityControllerTest, ValidatesEveryField)
{
    // analysis::validateCapacityParams names the base field...
    CapacityControllerParams bad = quickSearch(100.0);
    bad.search.sloUs = 0.0;
    EXPECT_THROW(CapacityController{bad}, ConfigError);
    bad = quickSearch(100.0);
    bad.search.tau = 1.5;
    EXPECT_THROW(CapacityController{bad}, ConfigError);
    bad = quickSearch(100.0);
    bad.search.utilizationLow = 0.9;
    bad.search.utilizationHigh = 0.5;
    EXPECT_THROW(CapacityController{bad}, ConfigError);
    // ...and the controller's own knobs get the same treatment.
    bad = quickSearch(100.0);
    bad.maxRunsPerProbe = 1; // below runsPerPoint = 2
    EXPECT_THROW(CapacityController{bad}, ConfigError);
    bad = quickSearch(100.0);
    bad.confidence = 1.0;
    EXPECT_THROW(CapacityController{bad}, ConfigError);
    bad = quickSearch(100.0);
    bad.confidence = 0.3;
    EXPECT_THROW(CapacityController{bad}, ConfigError);
    bad = quickSearch(100.0);
    bad.utilizationTolerance = 0.0;
    EXPECT_THROW(CapacityController{bad}, ConfigError);
}

TEST(CapacityControllerTest, EasySloResolvesInFewerRunsThanFixed)
{
    // A loose SLO lets both bracket probes clear on their first wave,
    // so the adaptive search must come in strictly under the fixed
    // bisection's (2 + maxIterations) * runsPerPoint budget.
    CapacityController controller(quickSearch(1.0e6));
    const CapacitySearchResult result = controller.search();
    EXPECT_FALSE(result.infeasible);
    EXPECT_TRUE(result.converged);
    EXPECT_DOUBLE_EQ(result.maxUtilization, 0.90);
    EXPECT_EQ(result.fixedPlannerRuns, (2u + 4u) * 2u);
    EXPECT_LT(result.totalRuns, result.fixedPlannerRuns);
    ASSERT_EQ(result.probes.size(), 2u);
    for (const ProbeOutcome &probe : result.probes) {
        EXPECT_TRUE(probe.meetsSlo);
        EXPECT_TRUE(probe.earlyExit);
        EXPECT_EQ(probe.comparison.verdict,
                  analysis::SloVerdict::Clears);
    }
}

TEST(CapacityControllerTest, FixedSettingIsThePlainBisection)
{
    // maxRunsPerProbe == runsPerPoint: every probe runs exactly
    // runsPerPoint runs and never exits early, its verdict is the mean
    // against the SLO, and with a tolerance that never fires the search
    // probes both bracket ends plus every iteration.
    CapacityControllerParams params = quickSearch(200.0);
    params.search.runsPerPoint = 3;
    params.maxRunsPerProbe = 3;
    params.utilizationTolerance = 1e-6;
    const CapacitySearchResult result =
        CapacityController(params).search();
    ASSERT_FALSE(result.infeasible);
    ASSERT_EQ(result.probes.size(), 2u + params.search.maxIterations);
    EXPECT_EQ(result.totalRuns, result.fixedPlannerRuns);
    for (const ProbeOutcome &probe : result.probes) {
        EXPECT_EQ(probe.perRunQuantileUs.size(), 3u);
        EXPECT_FALSE(probe.earlyExit);
        EXPECT_EQ(probe.meetsSlo,
                  probe.comparison.mean <= params.search.sloUs);
    }
}

TEST(CapacityControllerTest, ImpossibleSloIsInfeasible)
{
    CapacityController controller(quickSearch(1.0));
    const CapacitySearchResult result = controller.search();
    EXPECT_TRUE(result.infeasible);
    EXPECT_DOUBLE_EQ(result.maxUtilization, 0.0);
    ASSERT_EQ(result.probes.size(), 1u);
    EXPECT_FALSE(result.probes[0].meetsSlo);
}

TEST(CapacityControllerTest, ArchivesEveryKeptRun)
{
    const std::string dir =
        (fs::temp_directory_path() / "tmdrive_test_archive").string();
    fs::remove_all(dir);

    store::StudyMeta meta;
    meta.name = "capacity";
    meta.factors = {"utilization"};
    meta.quantiles = {0.5, 0.99};
    store::StudyWriter archive(dir, meta);

    CapacityController controller(quickSearch(1.0e6));
    const CapacitySearchResult result = controller.search(&archive);
    archive.finish();

    store::StudyReader study(dir);
    EXPECT_EQ(study.runCount(), result.totalRuns);
    EXPECT_EQ(study.verify().size(), 0u);
    // Each archived run carries its probe's utilization as the level.
    const store::RunRecord first = study.openRun(0).record();
    ASSERT_EQ(first.factorLevels.size(), 1u);
    EXPECT_DOUBLE_EQ(first.factorLevels[0], 0.05);
    fs::remove_all(dir);
}

StudyDriverParams
quickDriver()
{
    StudyDriverParams params;
    params.factors = {"load"};
    params.fit.quantiles = {0.5, 0.9};
    params.fit.bootstrapReplicates = 20;
    params.fit.seed = 5;
    return params;
}

std::vector<StudyRun>
quickPlan(std::size_t reps)
{
    std::vector<StudyRun> plan;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        for (int level = 0; level <= 1; ++level) {
            StudyRun run;
            run.params.collector.warmUpSamples = 100;
            run.params.collector.calibrationSamples = 100;
            run.params.collector.measurementSamples = 1200;
            run.params.targetUtilization = level == 0 ? 0.3 : 0.7;
            run.params.seed = 41 + 13 * plan.size();
            run.levels = {static_cast<double>(level)};
            plan.push_back(std::move(run));
        }
    }
    return plan;
}

TEST(StudyDriverTest, ValidatesParamsAndPlan)
{
    StudyDriverParams bad = quickDriver();
    bad.factors.clear();
    EXPECT_THROW(StudyDriver{bad}, ConfigError);
    bad = quickDriver();
    bad.fit.quantiles.clear();
    EXPECT_THROW(StudyDriver{bad}, ConfigError);
    bad = quickDriver();
    bad.fit.quantiles = {1.5};
    EXPECT_THROW(StudyDriver{bad}, ConfigError);
    // More factors than a FactorialDesign takes fail up front, not
    // once runs are simulating.
    bad = quickDriver();
    bad.factors.clear();
    for (int f = 0; f < 17; ++f)
        bad.factors.push_back(strprintf("f%d", f));
    EXPECT_THROW(StudyDriver{bad}, ConfigError);

    // Provenance quantiles fail in the constructor, before any run
    // simulates, and the error names the field.
    for (const std::vector<double> &taus :
         {std::vector<double>{}, std::vector<double>{0.5, 1.0},
          std::vector<double>{0.0}, std::vector<double>{0.5, -0.1}}) {
        bad = quickDriver();
        bad.attachProvenance = true;
        bad.provenanceQuantiles = taus;
        try {
            StudyDriver{bad};
            ADD_FAILURE() << "accepted " << taus.size() << " taus";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("provenanceQuantiles"),
                      std::string::npos)
                << e.what();
        }
    }
    // Unused without attachProvenance, so not checked.
    bad = quickDriver();
    bad.provenanceQuantiles.clear();
    EXPECT_NO_THROW(StudyDriver{bad});

    StudyDriver driver(quickDriver());
    std::vector<StudyRun> plan = quickPlan(1);
    plan[0].levels = {0.0, 1.0}; // two levels for one factor
    EXPECT_THROW(driver.run(plan), ConfigError);
}

TEST(StudyDriverTest, OutcomeIsIdenticalAcrossParallelism)
{
    // The pipeline's core claim: models, responses, and archive bytes
    // depend only on the plan, never on worker count or completion
    // order.
    const std::vector<StudyRun> plan = quickPlan(2);
    const std::string dirA =
        (fs::temp_directory_path() / "tmdrive_test_serial").string();
    const std::string dirB =
        (fs::temp_directory_path() / "tmdrive_test_parallel").string();
    fs::remove_all(dirA);
    fs::remove_all(dirB);

    store::StudyMeta meta;
    meta.name = "driver";
    meta.factors = {"load"};
    meta.quantiles = {0.5, 0.9};

    StudyDriverParams serial = quickDriver();
    serial.parallelism.threads = 1;
    StudyDriverParams parallel = quickDriver();
    parallel.parallelism.threads = 3;

    store::StudyWriter archiveA(dirA, meta);
    const StudyOutcome outA =
        StudyDriver(serial).run(plan, &archiveA);
    archiveA.finish();
    store::StudyWriter archiveB(dirB, meta);
    const StudyOutcome outB =
        StudyDriver(parallel).run(plan, &archiveB);
    archiveB.finish();

    EXPECT_EQ(outA.levels, outB.levels);
    EXPECT_EQ(outA.responses, outB.responses);
    EXPECT_EQ(analysis::toJson(outA.models).dump(),
              analysis::toJson(outB.models).dump());

    store::StudyReader studyA(dirA);
    store::StudyReader studyB(dirB);
    ASSERT_EQ(studyA.runCount(), plan.size());
    ASSERT_EQ(studyB.runCount(), plan.size());
    for (std::uint64_t seq = 0; seq < plan.size(); ++seq) {
        std::ifstream a(studyA.runPath(seq), std::ios::binary);
        std::ifstream b(studyB.runPath(seq), std::ios::binary);
        const std::string bytesA(
            (std::istreambuf_iterator<char>(a)),
            std::istreambuf_iterator<char>());
        const std::string bytesB(
            (std::istreambuf_iterator<char>(b)),
            std::istreambuf_iterator<char>());
        EXPECT_EQ(bytesA, bytesB) << "run " << seq;
    }
    fs::remove_all(dirA);
    fs::remove_all(dirB);
}

TEST(StudyDriverTest, MetricsAndProgressFollowThePlan)
{
    // Whatever order three workers finish in, run i's metrics snapshot
    // lands in slot i, and progress reports each run exactly once.
    StudyDriverParams params = quickDriver();
    params.parallelism.threads = 3;
    std::vector<exec::Progress> reports;
    params.progress = [&reports](const exec::Progress &p) {
        reports.push_back(p);
    };
    const std::vector<StudyRun> plan = quickPlan(2);
    const StudyOutcome out = StudyDriver(params).run(plan);

    ASSERT_EQ(out.metrics.size(), plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i)
        EXPECT_EQ(out.metrics[i],
                  core::runExperiment(plan[i].params).metrics.dump())
            << "run " << i;
    ASSERT_EQ(reports.size(), plan.size());
    for (std::size_t k = 0; k < reports.size(); ++k) {
        EXPECT_EQ(reports[k].completed, k + 1);
        EXPECT_EQ(reports[k].total, plan.size());
        EXPECT_GT(reports[k].workUnits, 0.0);
    }
}

TEST(StudyDriverTest, AFailingRunRethrowsItsConfigError)
{
    // A plan entry whose run cannot start (no client machines) fails
    // the study with that run's ConfigError, raised on the caller once
    // every lane has joined, serially and across three lanes, with
    // an archive attached.
    std::vector<StudyRun> plan = quickPlan(2);
    plan[2].params.tester.clientMachines = 0;
    store::StudyMeta meta;
    meta.name = "driver";
    meta.factors = {"load"};
    meta.quantiles = {0.5, 0.9};
    for (unsigned threads : {1u, 3u}) {
        const std::string dir =
            (fs::temp_directory_path() /
             strprintf("tmdrive_test_failing%u", threads))
                .string();
        fs::remove_all(dir);
        store::StudyWriter archive(dir, meta);
        StudyDriverParams params = quickDriver();
        params.parallelism.threads = threads;
        try {
            StudyDriver(params).run(plan, &archive);
            ADD_FAILURE() << "threads " << threads << ": no error";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("client"),
                      std::string::npos)
                << e.what();
        }
        fs::remove_all(dir);
    }
}

} // namespace
} // namespace drive
} // namespace treadmill
