#include "drive/study_driver.h"

#include <algorithm>
#include <utility>

#include "analysis/provenance.h"
#include "drive/repeat.h"
#include "exec/progress.h"
#include "hw/hardware_config.h"
#include "stats/summary.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace treadmill {
namespace drive {

StudyDriver::StudyDriver(StudyDriverParams params)
    : controls(std::move(params)), design(controls.factors)
{
    // The design (factor count) and quantile lists fail here, before
    // any run simulates.
    const auto checkTaus = [](const std::vector<double> &taus,
                              const char *field) {
        if (taus.empty())
            throw ConfigError(strprintf(
                "study driver: %s must be nonempty", field));
        for (double tau : taus) {
            if (!(tau > 0.0) || !(tau < 1.0))
                throw ConfigError(strprintf(
                    "study driver: %s must lie in (0, 1), got %g", field,
                    tau));
        }
    };
    checkTaus(controls.fit.quantiles, "fit.quantiles");
    if (controls.attachProvenance)
        checkTaus(controls.provenanceQuantiles, "provenanceQuantiles");
}

StudyOutcome
StudyDriver::run(const std::vector<StudyRun> &plan,
                 store::StudyWriter *archive)
{
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (plan[i].levels.size() != controls.factors.size())
            throw ConfigError(strprintf(
                "study driver: plan entry %zu carries %zu levels for "
                "%zu factors",
                i, plan[i].levels.size(), controls.factors.size()));
    }

    core::RunRecordOptions record;
    record.quantiles = controls.fit.quantiles;
    std::sort(record.quantiles.begin(), record.quantiles.end());
    record.quantiles.erase(
        std::unique(record.quantiles.begin(), record.quantiles.end()),
        record.quantiles.end());

    StudyOutcome out;
    out.runs = plan.size();
    out.levels.reserve(plan.size());
    for (const StudyRun &run : plan)
        out.levels.push_back(run.levels);
    for (double tau : record.quantiles)
        out.responses[tau].resize(plan.size());
    out.metrics.resize(plan.size());

    // One fan-out over the whole plan. Run i fills only slot i of the
    // outcome (responses.at never inserts), and parallelFor rethrows
    // the first failure here once every lane has joined.
    exec::ProgressMeter meter(plan.size(), controls.progress);
    exec::parallelFor(controls.parallelism, plan.size(), [&](std::size_t i) {
        const core::ExperimentResult result =
            core::runExperiment(plan[i].params);
        store::RunRecord rec = core::toRunRecord(
            plan[i].params, result, plan[i].levels, record);
        if (controls.attachProvenance && !result.spans.empty()) {
            const analysis::ProvenanceReport report =
                analysis::tailProvenance(result.spans,
                                         controls.provenanceQuantiles);
            for (const analysis::QuantileProvenance &qp : report.quantiles)
                for (const analysis::SegmentContribution &seg :
                     qp.segments)
                    rec.provenance.push_back(
                        {qp.tau, static_cast<std::uint64_t>(seg.kind),
                         seg.meanUs, seg.share});
        }
        if (archive != nullptr)
            archive->writeRun(i, rec);
        for (std::size_t t = 0; t < rec.quantileTaus.size(); ++t)
            out.responses.at(rec.quantileTaus[t])[i] = rec.quantileUs[t];
        out.metrics[i] = std::move(rec.metricsJson);
        meter.done(toSeconds(result.simulatedTime));
    });

    // Bit-identical to analysis::refitFromStore on the archive this
    // call wrote: both fit the same snapshotted doubles in plan order.
    out.models = analysis::fitFactorialModels(design, out.levels,
                                              out.responses, controls.fit);
    return out;
}

std::vector<StudyRun>
hardwarePlan(const analysis::AttributionParams &params)
{
    if (params.repsPerConfig == 0)
        throw ConfigError("attribution needs at least one rep per cell");

    // repsPerConfig copies of each of the 16 cells, shuffled so
    // consecutive runs exercise random permutations of the
    // configurations (preserving independence, paper S V-A).
    std::vector<unsigned> cells;
    cells.reserve(16u * params.repsPerConfig);
    for (unsigned rep = 0; rep < params.repsPerConfig; ++rep)
        for (unsigned cfg = 0; cfg < 16; ++cfg)
            cells.push_back(cfg);

    Rng rng = Rng(0xa77b1b071017ull).substream(params.seed);
    for (std::size_t i = cells.size() - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(rng.nextBelow(i + 1));
        std::swap(cells[i], cells[j]);
    }

    // The paper drives every configuration at the same request rate
    // (100k/800k RPS): derive the rate once from the base config and
    // hold it constant, so utilization differences between configs are
    // part of the measured effect.
    core::ExperimentParams reference = params.base;
    reference.seed = params.seed;
    const double fixedRps = core::deriveRequestRate(reference);

    std::vector<StudyRun> plan;
    plan.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        StudyRun run;
        run.params = params.base;
        run.params.requestsPerSecond = fixedRps;
        run.params.config = hw::HardwareConfig::fromIndex(cells[i]);
        run.params.seed = params.seed * 2654435761ull + i * 97 + 1;
        const auto levels = run.params.config.levels();
        run.levels.assign(levels.begin(), levels.end());
        plan.push_back(std::move(run));
    }
    return plan;
}

analysis::AttributionResult
runAttribution(const analysis::AttributionParams &params)
{
    StudyDriverParams controls;
    controls.factors = hw::factorNames();
    controls.fit.quantiles = params.quantiles;
    controls.fit.bootstrapReplicates = params.bootstrapReplicates;
    controls.fit.seed = params.seed;
    controls.parallelism = params.parallelism;
    controls.progress = params.progress;
    StudyOutcome outcome =
        StudyDriver(std::move(controls)).run(hardwarePlan(params));

    analysis::AttributionResult result;
    result.levels = std::move(outcome.levels);
    result.responses = std::move(outcome.responses);
    result.models = std::move(outcome.models);
    return result;
}

analysis::ImprovementResult
evaluateImprovement(const analysis::AttributionResult &attribution,
                    const analysis::ImprovementParams &params)
{
    if (params.runsPerArm == 0)
        throw ConfigError("improvement evaluation needs runs");

    analysis::ImprovementResult result;
    result.tau = params.tau;
    result.recommended =
        analysis::bestConfiguration(attribution, params.tau);

    const auto arm = [&params](std::uint64_t seedBase,
                               const std::vector<hw::HardwareConfig>
                                   &configs) {
        Repetitions reps;
        reps.paramsOf = [&](std::size_t k) {
            core::ExperimentParams p = params.base;
            p.config = configs[k];
            p.seed = seedBase * 104729 + k * 31 + 7;
            return p;
        };
        reps.tau = params.tau;
        reps.maxRuns = params.runsPerArm;
        analysis::ImprovementArm out;
        out.perRunQuantileUs = repeatRuns(reps);
        out.mean = stats::mean(out.perRunQuantileUs);
        out.stddev = stats::stddev(out.perRunQuantileUs);
        return out;
    };

    // The before arm's random configurations, drawn in run order.
    std::vector<hw::HardwareConfig> randomConfigs;
    randomConfigs.reserve(params.runsPerArm);
    Rng rng = Rng(0x19a9e0b5eedull).substream(params.seed);
    for (unsigned k = 0; k < params.runsPerArm; ++k)
        randomConfigs.push_back(hw::HardwareConfig::fromIndex(
            static_cast<unsigned>(rng.nextBelow(16))));
    result.before = arm(params.seed, randomConfigs);
    result.after =
        arm(params.seed + 9973,
            std::vector<hw::HardwareConfig>(params.runsPerArm,
                                            result.recommended));
    return result;
}

} // namespace drive
} // namespace treadmill
