#include "drive/study_driver.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "analysis/provenance.h"
#include "drive/repeat.h"
#include "exec/parallel_runner.h"
#include "hw/hardware_config.h"
#include "stats/summary.h"
#include "util/error.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace treadmill {
namespace drive {

namespace {

/** One completed run handed from the simulation thread to the fitter. */
struct Completion {
    std::size_t index = 0;
    /** tau -> snapshotted response (the exact archived doubles). */
    std::map<double, double> quantileUs;
    /** The run record's metrics JSON, moved out after archiving. */
    std::string metrics;
};

} // namespace

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
    if (controls.reservoirCapacity == 0)
        throw ConfigError(
            "study driver: reservoirCapacity must be nonzero");
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

    std::vector<double> taus = controls.fit.quantiles;
    std::sort(taus.begin(), taus.end());
    taus.erase(std::unique(taus.begin(), taus.end()), taus.end());

    core::RunRecordOptions record;
    record.quantiles = taus;
    record.reservoirCapacity = controls.reservoirCapacity;
    record.aggregation = controls.aggregation;

    std::mutex mutex;
    std::condition_variable ready;
    std::deque<Completion> queue; // tm:guarded_by(mutex)
    bool producerDone = false;    // tm:guarded_by(mutex)
    std::exception_ptr failure;   // tm:guarded_by(mutex)

    // Producer: simulate + persist on the pool; the caller's thread
    // stays free to fit. The runner stops remaining indices on the
    // first exception and rethrows it here. A jthread joins on every
    // path out of run(), so an exception in the consumer cannot
    // destroy a joinable thread; the producer never waits on the
    // consumer.
    exec::ParallelRunner runner(controls.parallelism);
    runner.onProgress(controls.progress);
    std::jthread producer([&] {
        try {
            runner.run(
                plan.size(),
                [&](std::size_t i) {
                    const core::ExperimentResult result =
                        core::runExperiment(plan[i].params);
                    store::RunRecord rec = core::toRunRecord(
                        plan[i].params, result, plan[i].levels,
                        record);
                    if (controls.attachProvenance &&
                        !result.spans.empty()) {
                        const analysis::ProvenanceReport report =
                            analysis::tailProvenance(
                                result.spans,
                                controls.provenanceQuantiles);
                        for (const analysis::QuantileProvenance &qp :
                             report.quantiles)
                            for (const analysis::SegmentContribution
                                     &seg : qp.segments)
                                rec.provenance.push_back(
                                    {qp.tau,
                                     static_cast<std::uint64_t>(
                                         seg.kind),
                                     seg.meanUs, seg.share});
                    }
                    if (archive != nullptr)
                        archive->writeRun(i, rec);

                    Completion done;
                    done.index = i;
                    for (std::size_t t = 0;
                         t < rec.quantileTaus.size(); ++t)
                        done.quantileUs[rec.quantileTaus[t]] =
                            rec.quantileUs[t];
                    done.metrics = std::move(rec.metricsJson);
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        queue.push_back(std::move(done));
                    }
                    ready.notify_one();
                    return toSeconds(result.simulatedTime);
                },
                [](double simSeconds) { return simSeconds; });
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            failure = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            producerDone = true;
        }
        ready.notify_one();
    });

    // Consumer: drain completions, refitting while runs are still in
    // flight. Incremental models are progress signals and discarded;
    // only the final plan-order fit is returned.
    StudyOutcome out;
    out.metrics.resize(plan.size());
    std::vector<std::map<double, double>> perRun(plan.size());
    std::vector<bool> have(plan.size(), false);
    std::size_t completed = 0;
    unsigned sinceFit = 0;
    const std::size_t cells = std::size_t{1} << controls.factors.size();

    const auto gather = [&](std::size_t upTo) {
        std::vector<std::vector<double>> levels;
        std::map<double, std::vector<double>> responses;
        for (std::size_t i = 0; i < upTo; ++i) {
            if (!have[i])
                continue;
            levels.push_back(plan[i].levels);
            for (const auto &[tau, value] : perRun[i])
                responses[tau].push_back(value);
        }
        return std::make_pair(std::move(levels), std::move(responses));
    };

    while (true) {
        Completion done;
        {
            std::unique_lock<std::mutex> lock(mutex);
            ready.wait(lock, [&] {
                return !queue.empty() || producerDone;
            });
            if (queue.empty())
                break;
            done = std::move(queue.front());
            queue.pop_front();
        }
        perRun[done.index] = std::move(done.quantileUs);
        // Copied, not moved: the outcome outlives the pool, and a
        // worker-allocated string kept for the whole study fragments
        // the malloc arena later runs allocate from (about 6% of the
        // study benchmark's hw_factorial study_s).
        out.metrics[done.index] = done.metrics;
        have[done.index] = true;
        ++completed;
        ++sinceFit;

        const bool inFlight = completed < plan.size();
        if (controls.refitEvery != 0 && inFlight &&
            sinceFit >= controls.refitEvery && completed >= cells) {
            auto [levels, responses] = gather(plan.size());
            try {
                analysis::fitFactorialModels(design, levels,
                                             responses, controls.fit);
                ++out.refitsOverlapped;
            } catch (const Error &) {
                // A partial data set can leave a cell with fewer than
                // the 2 runs the bootstrap needs; the next completion
                // retries, and the final fit always runs.
            }
            sinceFit = 0;
        }
    }
    producer.join();
    // tmlint:allow-next-line(guarded-by): producer joined above; no concurrent writers remain
    if (failure)
        // tmlint:allow-next-line(guarded-by): producer joined above; no concurrent writers remain
        std::rethrow_exception(failure);

    // Final fit over all runs in plan order -- bit-identical to
    // analysis::refitFromStore on the archive this call wrote.
    auto [levels, responses] = gather(plan.size());
    out.levels = std::move(levels);
    out.responses = std::move(responses);
    out.runs = plan.size();
    out.models = analysis::fitFactorialModels(design, out.levels,
                                              out.responses,
                                              controls.fit);
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
    const std::vector<StudyRun> plan = hardwarePlan(params);

    StudyDriverParams controls;
    controls.factors = hw::factorNames();
    controls.fit.quantiles = params.quantiles;
    controls.fit.bootstrapReplicates = params.bootstrapReplicates;
    controls.fit.seed = params.seed;
    controls.aggregation = params.aggregation;
    controls.parallelism = params.parallelism;
    controls.progress = params.progress;
    StudyOutcome outcome = StudyDriver(std::move(controls)).run(plan);

    analysis::AttributionResult result;
    result.models = std::move(outcome.models);
    result.observations.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        analysis::Observation obs;
        obs.config = plan[i].params.config;
        obs.runSeed = plan[i].params.seed;
        for (double tau : params.quantiles)
            obs.quantileUs[tau] = outcome.responses.at(tau)[i];
        obs.serverUtilization = json::parse(outcome.metrics[i])
                                    .at("gauges")
                                    .at("server.worker_utilization")
                                    .asNumber();
        result.observations.push_back(std::move(obs));
    }
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
        reps.aggregation = params.aggregation;
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
