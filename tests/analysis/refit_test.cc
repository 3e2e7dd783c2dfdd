/**
 * @file
 * Refit-from-archive tests: fitting from stored runs must reproduce a
 * live fit bit-identically, without touching the simulator.
 */

#include "analysis/refit.h"

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/export.h"
#include "store/writer.h"
#include "util/error.h"

namespace treadmill {
namespace analysis {
namespace {

namespace fs = std::filesystem;

/**
 * A synthetic two-factor study: responses are a deterministic function
 * of the levels plus a per-run wiggle, so the fit is well-posed and no
 * simulation is needed.
 */
struct SyntheticStudy {
    std::vector<std::vector<double>> levels;
    std::map<double, std::vector<double>> responses;
    std::vector<store::RunRecord> records;
};

SyntheticStudy
makeStudy(std::size_t reps)
{
    SyntheticStudy study;
    std::uint64_t seq = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        for (int a = 0; a <= 1; ++a) {
            for (int b = 0; b <= 1; ++b) {
                const double wiggle =
                    static_cast<double>((seq * 7919) % 13) * 0.25;
                const double p50 =
                    100.0 + 40.0 * a + 15.0 * b + 5.0 * a * b + wiggle;
                const double p99 = p50 * 3.0 + 10.0 * a + wiggle;

                store::RunRecord rec;
                rec.seed = 1000 + seq;
                rec.configDigest =
                    0xd1600000u + static_cast<std::uint64_t>(a * 2 + b);
                rec.factorLevels = {static_cast<double>(a),
                                    static_cast<double>(b)};
                rec.quantileTaus = {0.5, 0.99};
                rec.quantileUs = {p50, p99};
                // A reservoir whose own quantiles differ from the
                // snapshots, proving refit prefers exact snapshots.
                for (int i = 0; i < 64; ++i)
                    rec.reservoir.push_back(p50 +
                                            static_cast<double>(i));
                rec.reservoirSeen = 64;
                rec.reservoirCapacity = 64;
                rec.targetRps = 1000.0;
                rec.achievedRps = 1000.0;
                rec.serverUtilization = 0.5;
                rec.simulatedSeconds = 1.0;
                rec.metricsJson = "{}";

                study.levels.push_back(rec.factorLevels);
                study.responses[0.5].push_back(p50);
                study.responses[0.99].push_back(p99);
                study.records.push_back(std::move(rec));
                ++seq;
            }
        }
    }
    return study;
}

std::string
writeStudy(const SyntheticStudy &study, const std::string &name)
{
    const std::string dir =
        (fs::temp_directory_path() / name).string();
    fs::remove_all(dir);
    store::StudyMeta meta;
    meta.name = "synthetic";
    meta.factors = {"a", "b"};
    meta.quantiles = {0.5, 0.99};
    store::StudyWriter writer(dir, meta);
    for (std::size_t i = 0; i < study.records.size(); ++i)
        writer.writeRun(i, study.records[i]);
    writer.finish();
    return dir;
}

FactorialFitParams
fitParams()
{
    FactorialFitParams params;
    params.quantiles = {0.5, 0.99};
    params.bootstrapReplicates = 40;
    params.seed = 77;
    return params;
}

TEST(RefitTest, RefitReadsRunsInSequenceOrder)
{
    // Runs written in reverse sequence order are still fitted in
    // sequence order: the refit equals the live fit on the plan-order
    // data set, and differs from a fit on the reversed one.
    const SyntheticStudy study = makeStudy(2);
    const std::string dir =
        (fs::temp_directory_path() / "tmrefit_test_order").string();
    fs::remove_all(dir);
    store::StudyMeta meta;
    meta.name = "synthetic";
    meta.factors = {"a", "b"};
    meta.quantiles = {0.5, 0.99};
    store::StudyWriter writer(dir, meta);
    for (std::size_t i = study.records.size(); i-- > 0;)
        writer.writeRun(i, study.records[i]);
    writer.finish();

    const regress::FactorialDesign design(
        std::vector<std::string>{"a", "b"});
    const std::vector<QuantileModel> live = fitFactorialModels(
        design, study.levels, study.responses, fitParams());
    std::vector<std::vector<double>> reversedLevels(
        study.levels.rbegin(), study.levels.rend());
    std::map<double, std::vector<double>> reversedResponses;
    for (const auto &[tau, y] : study.responses)
        reversedResponses[tau].assign(y.rbegin(), y.rend());
    const std::vector<QuantileModel> reversed = fitFactorialModels(
        design, reversedLevels, reversedResponses, fitParams());

    const store::StudyReader reader(dir);
    const std::string refit =
        toJson(refitFromStore(reader, fitParams())).dump();
    EXPECT_EQ(refit, toJson(live).dump());
    EXPECT_NE(refit, toJson(reversed).dump());
    fs::remove_all(dir);
}

TEST(RefitTest, UnsnapshottedTauIsRefusedByName)
{
    // 0.25 was never snapshotted. The archived reservoirs could
    // produce a number, but a quantile of the merged reservoir is not
    // the per-instance quantity the live fit used (pitfall 2), so the
    // refit refuses and names the tau and the snapshotted ones.
    const SyntheticStudy study = makeStudy(1);
    const std::string dir = writeStudy(study, "tmrefit_test_tau");
    const store::StudyReader reader(dir);
    FactorialFitParams params = fitParams();
    params.quantiles = {0.5, 0.25};
    try {
        refitFromStore(reader, params);
        ADD_FAILURE() << "refit accepted an unsnapshotted tau";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("tau 0.25"), std::string::npos) << what;
        EXPECT_NE(what.find("0.5, 0.99"), std::string::npos) << what;
    }
    fs::remove_all(dir);
}

TEST(RefitTest, RefitMatchesLiveFitBitForBit)
{
    // The acceptance bar: a live fit and a from-disk refit with the
    // same FactorialFitParams serialize to identical JSON text.
    const SyntheticStudy study = makeStudy(3);
    const std::string dir = writeStudy(study, "tmrefit_test_bits");

    const regress::FactorialDesign design(
        std::vector<std::string>{"a", "b"});
    const std::vector<QuantileModel> live = fitFactorialModels(
        design, study.levels, study.responses, fitParams());

    const store::StudyReader reader(dir);
    const std::vector<QuantileModel> refit =
        refitFromStore(reader, fitParams());

    EXPECT_EQ(toJson(live).dumpPretty(), toJson(refit).dumpPretty());
    fs::remove_all(dir);
}

TEST(RefitTest, RefitIsRepeatable)
{
    const SyntheticStudy study = makeStudy(2);
    const std::string dir = writeStudy(study, "tmrefit_test_repeat");
    const store::StudyReader reader(dir);
    EXPECT_EQ(toJson(refitFromStore(reader, fitParams())).dump(),
              toJson(refitFromStore(reader, fitParams())).dump());
    fs::remove_all(dir);
}

TEST(RefitTest, ProvenanceRanksAggregateAcrossRuns)
{
    SyntheticStudy study = makeStudy(1);
    // Attach provenance to half the runs: kind 3 dominates kind 1.
    for (std::size_t i = 0; i < study.records.size(); i += 2) {
        study.records[i].provenance = {
            {0.99, 3, 800.0, 0.8},
            {0.99, 1, 100.0, 0.1},
        };
    }
    const std::string dir = writeStudy(study, "tmrefit_test_prov");
    const store::StudyReader reader(dir);
    const auto ranks = provenanceRankFromStore(reader);
    ASSERT_EQ(ranks.count(0.99), 1u);
    const auto &ranked = ranks.at(0.99);
    ASSERT_EQ(ranked.size(), 2u);
    EXPECT_EQ(ranked[0].kind, 3u);
    EXPECT_NEAR(ranked[0].share, 0.8, 1e-12);
    EXPECT_EQ(ranked[0].runs, 2u);
    EXPECT_GE(ranked[0].share, ranked[1].share);
    fs::remove_all(dir);
}

TEST(RefitTest, MissingTauIsConfigError)
{
    // One run snapshotted only P50: asking for P99, which every other
    // run has, fails on that run instead of fitting a short column.
    SyntheticStudy study = makeStudy(1);
    study.records[2].quantileTaus = {0.5};
    study.records[2].quantileUs.resize(1);
    const std::string dir = writeStudy(study, "tmrefit_test_missing");
    const store::StudyReader reader(dir);
    try {
        refitFromStore(reader, fitParams());
        ADD_FAILURE() << "refit accepted a run without tau 0.99";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("run 2"), std::string::npos) << what;
        EXPECT_NE(what.find("tau 0.99"), std::string::npos) << what;
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace analysis
} // namespace treadmill
