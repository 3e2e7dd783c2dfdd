/**
 * @file
 * Closed-loop capacity study driven through the run store.
 *
 * Phase 1 (default): find the maximum utilization (and RPS) the PR 6
 * four-shard cluster sustains under a P99 SLO, using the adaptive
 * CapacityController -- CI-resolved probes with fresh-seed re-probes
 * -- and persist every simulated run to a columnar archive. The
 * controller must spend strictly fewer runs than the fixed bisection
 * planner would on the same bracket while every narrowed probe is
 * backed by a confidence verdict. A 2^2 factorial attribution sweep
 * (shard-2 stall x balancer policy) then runs through the
 * StudyDriver -- one fan-out that archives every run, then one fit --
 * with span tracing on, and the fitted models land next to the archive
 * as models.json.
 *
 * Phase 2 (--refit): open the archives read-only and reproduce every
 * conclusion with zero simulations -- verify both archives, re-fit
 * the factorial models bit-identically against models.json, re-derive
 * the capacity operating point from the stored per-run quantiles, and
 * re-rank tail-provenance segments from the stored rows.
 *
 * Run: ./build/examples/capacity_study [output-dir] [--refit]
 * Archives live in <output-dir>/capacity_archive/{capacity,factorial}.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/capacity.h"
#include "analysis/export.h"
#include "analysis/refit.h"
#include "analysis/report.h"
#include "core/experiment.h"
#include "core/run_record.h"
#include "drive/capacity_controller.h"
#include "drive/study_driver.h"
#include "fault/plan.h"
#include "store/reader.h"
#include "store/writer.h"
#include "util/error.h"
#include "util/json.h"

using namespace treadmill;

namespace {

constexpr double kSloUs = 2500.0;
constexpr double kTau = 0.99;
constexpr double kConfidence = 0.95;
constexpr unsigned kMaxRunsPerProbe = 6;
constexpr unsigned kRepsPerCell = 6;
const std::vector<double> kQuantiles{0.5, 0.95, 0.99};

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    out << content;
    return out.good();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return {};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The PR 6 cluster: four Memcached shards behind the router. */
core::ExperimentParams
clusterBase()
{
    core::ExperimentParams base;
    base.kind = core::WorkloadKind::Mcrouter;
    base.collector.warmUpSamples = 300;
    base.collector.calibrationSamples = 300;
    base.collector.measurementSamples = 2500;
    base.cluster.backends = 4;
    base.cluster.replication = 2;
    base.deadline = seconds(2);
    return base;
}

/** Shard 2 freezes 3 ms every 40 ms, or nothing. */
fault::FaultPlan
stallPlan(bool stallHigh)
{
    fault::FaultPlan plan;
    if (stallHigh) {
        fault::FaultEvent ev;
        ev.kind = fault::FaultKind::ServerStall;
        ev.backend = 2;
        ev.start = milliseconds(20);
        ev.duration = milliseconds(3);
        ev.period = milliseconds(40);
        ev.repeatCount = 50;
        plan.events.push_back(ev);
    }
    return plan;
}

drive::CapacityControllerParams
searchParams()
{
    drive::CapacityControllerParams controls;
    controls.search.base = clusterBase();
    controls.search.tau = kTau;
    controls.search.sloUs = kSloUs;
    controls.search.utilizationLow = 0.10;
    controls.search.utilizationHigh = 0.90;
    controls.search.maxIterations = 8;
    controls.search.runsPerPoint = 3;
    controls.search.seed = 17;
    controls.maxRunsPerProbe = kMaxRunsPerProbe;
    controls.confidence = kConfidence;
    controls.utilizationTolerance = 0.05;
    return controls;
}

/** The factorial fit both phases must use identically. */
analysis::FactorialFitParams
factorialFit()
{
    analysis::FactorialFitParams fit;
    fit.quantiles = kQuantiles;
    fit.bootstrapReplicates = 200;
    fit.seed = 99;
    return fit;
}

int
runStudy(const std::string &dir)
{
    const std::string root = dir + "/capacity_archive";

    // ---- Closed-loop capacity search, archived as it runs ----
    const drive::CapacityControllerParams controls = searchParams();
    core::ExperimentParams base = controls.search.base;

    store::StudyMeta capMeta;
    capMeta.name = "capacity";
    capMeta.factors = {"utilization"};
    capMeta.quantiles = {0.5, kTau};
    capMeta.configDigest = core::configDigest(base);
    store::StudyWriter capArchive(root + "/capacity", capMeta,
                                  store::StudyWriter::Options{true});

    std::printf("Adaptive capacity search: P%.0f <= %.0f us on the "
                "4-shard cluster, bracket [%.2f, %.2f]...\n",
                kTau * 100.0, kSloUs, controls.search.utilizationLow,
                controls.search.utilizationHigh);
    drive::CapacityController controller(controls);
    const drive::CapacitySearchResult cap =
        controller.search(&capArchive);
    capArchive.finish();

    for (const drive::ProbeOutcome &probe : cap.probes) {
        const char *verdict =
            probe.comparison.verdict == analysis::SloVerdict::Clears
                ? "clears"
            : probe.comparison.verdict ==
                    analysis::SloVerdict::Violates
                ? "violates"
                : "uncertain";
        std::printf("  probe util %.3f: %zu runs, P99 %.0f us "
                    "[%.0f, %.0f], %s%s\n",
                    probe.utilization, probe.perRunQuantileUs.size(),
                    probe.comparison.mean, probe.comparison.ciLowUs,
                    probe.comparison.ciHighUs, verdict,
                    probe.earlyExit ? " (early exit)" : "");
    }
    if (cap.infeasible || !cap.converged) {
        std::fprintf(stderr,
                     "capacity search did not converge (infeasible=%d "
                     "converged=%d)\n",
                     cap.infeasible, cap.converged);
        return 1;
    }
    if (cap.latencyAtMaxUs > kSloUs) {
        std::fprintf(stderr,
                     "operating point violates the SLO: %.0f us\n",
                     cap.latencyAtMaxUs);
        return 1;
    }
    std::printf("Operating point: util %.3f (%.0f RPS), P99 %.0f us; "
                "%u runs vs %u for the fixed planner\n",
                cap.maxUtilization, cap.maxRequestsPerSecond,
                cap.latencyAtMaxUs, cap.totalRuns,
                cap.fixedPlannerRuns);
    if (cap.totalRuns >= cap.fixedPlannerRuns) {
        std::fprintf(stderr,
                     "adaptive search did not beat the fixed planner "
                     "(%u >= %u runs)\n",
                     cap.totalRuns, cap.fixedPlannerRuns);
        return 1;
    }

    json::Object capDoc;
    capDoc["max_utilization"] = json::Value(cap.maxUtilization);
    capDoc["max_rps"] = json::Value(cap.maxRequestsPerSecond);
    capDoc["latency_at_max_us"] = json::Value(cap.latencyAtMaxUs);
    capDoc["total_runs"] =
        json::Value(static_cast<std::int64_t>(cap.totalRuns));
    capDoc["fixed_planner_runs"] =
        json::Value(static_cast<std::int64_t>(cap.fixedPlannerRuns));
    capDoc["slo_us"] = json::Value(kSloUs);
    if (!writeFile(root + "/capacity/capacity.json",
                   json::Value(std::move(capDoc)).dumpPretty() + "\n"))
        return 1;

    // ---- Factorial attribution sweep through the pipeline ----
    base.targetUtilization = 0.5;
    base.requestsPerSecond = core::deriveRequestRate(base);
    base.trace.enabled = true;

    std::vector<drive::StudyRun> plan;
    for (unsigned cell = 0; cell < 4; ++cell) {
        const bool stallHigh = (cell & 1u) != 0;
        const bool p2cHigh = (cell & 2u) != 0;
        for (unsigned rep = 0; rep < kRepsPerCell; ++rep) {
            drive::StudyRun run;
            run.params = base;
            run.params.faultPlan = stallPlan(stallHigh);
            run.params.cluster.policy =
                p2cHigh ? lb::PolicyKind::PowerOfTwo
                        : lb::PolicyKind::Fcfs;
            run.params.seed = 23 + 7919 * plan.size();
            run.levels = {stallHigh ? 1.0 : 0.0, p2cHigh ? 1.0 : 0.0};
            plan.push_back(std::move(run));
        }
    }

    drive::StudyDriverParams driverParams;
    driverParams.factors = {"backend2_stall", "p2c"};
    driverParams.fit = factorialFit();
    driverParams.attachProvenance = true;
    driverParams.provenanceQuantiles = {0.5, 0.99};

    store::StudyMeta facMeta;
    facMeta.name = "factorial";
    facMeta.factors = driverParams.factors;
    facMeta.quantiles = kQuantiles;
    facMeta.configDigest = core::configDigest(base);
    store::StudyWriter facArchive(root + "/factorial", facMeta,
                                  store::StudyWriter::Options{true});

    std::printf("\n2^2 factorial sweep (%zu runs, spans on)...\n",
                plan.size());
    drive::StudyDriver driver(driverParams);
    const drive::StudyOutcome outcome = driver.run(plan, &facArchive);
    facArchive.finish();
    std::printf("  %zu runs archived\n", outcome.runs);

    std::printf("\n%s\n",
                analysis::renderCoefficientTable(outcome.models)
                    .c_str());
    const std::string modelsText =
        analysis::toJson(outcome.models).dumpPretty() + "\n";
    if (!writeFile(root + "/factorial/models.json", modelsText))
        return 1;

    // ---- The archives must leave this process verify-clean ----
    for (const char *study : {"capacity", "factorial"}) {
        const store::StudyReader reader(root + "/" + study);
        const auto problems = reader.verify();
        for (const auto &p : problems)
            std::fprintf(stderr, "%s: %s: %s\n", p.file.c_str(),
                         p.kind.c_str(), p.detail.c_str());
        if (!problems.empty()) {
            std::fprintf(stderr, "archive %s is not clean\n", study);
            return 1;
        }
    }
    std::printf("Archives verify clean under %s\n", root.c_str());
    std::printf("Re-analyze without simulating: capacity_study %s "
                "--refit\n",
                dir.c_str());
    return 0;
}

/** True when the stored probe point satisfies the SLO under the same
 *  decision rule the controller applied live. */
bool
storedPointMeetsSlo(const std::vector<double> &perRun)
{
    const analysis::SloComparison cmp =
        analysis::compareToSlo(perRun, kSloUs, kConfidence);
    if (cmp.verdict == analysis::SloVerdict::Clears)
        return true;
    if (cmp.verdict == analysis::SloVerdict::Violates)
        return false;
    // Uncertain points only survive at the probe budget, where the
    // controller falls back to the mean.
    return cmp.runs >= kMaxRunsPerProbe && cmp.mean <= kSloUs;
}

int
refitStudy(const std::string &dir)
{
    const std::string root = dir + "/capacity_archive";

    // ---- Integrity first: both archives must be clean ----
    for (const char *study : {"capacity", "factorial"}) {
        const store::StudyReader reader(root + "/" + study);
        const auto problems = reader.verify();
        for (const auto &p : problems)
            std::fprintf(stderr, "%s: %s: %s\n", p.file.c_str(),
                         p.kind.c_str(), p.detail.c_str());
        if (!problems.empty()) {
            std::fprintf(stderr, "archive %s is not clean\n", study);
            return 1;
        }
    }

    // ---- Re-derive the operating point from stored quantiles ----
    const store::StudyReader capacity(root + "/capacity");
    std::map<double, std::vector<double>> byUtilization;
    for (std::uint64_t seq = 0; seq < capacity.runCount(); ++seq) {
        const store::RunReader run = capacity.openRun(seq);
        const double utilization =
            run.doubles(store::ColumnId::FactorLevels)[0];
        const auto taus = run.doubles(store::ColumnId::QuantileTaus);
        const auto values =
            run.doubles(store::ColumnId::QuantileValues);
        for (std::size_t i = 0; i < taus.size(); ++i)
            if (taus[i] == kTau)
                byUtilization[utilization].push_back(values[i]);
    }
    double rederivedMax = 0.0;
    bool feasible = false;
    for (const auto &[utilization, perRun] : byUtilization) {
        if (storedPointMeetsSlo(perRun)) {
            rederivedMax = std::max(rederivedMax, utilization);
            feasible = true;
        }
    }
    const std::string capText =
        readFile(root + "/capacity/capacity.json");
    if (capText.empty())
        return 1;
    const json::Value capDoc = json::parse(capText);
    const double recordedMax = capDoc.at("max_utilization").asNumber();
    std::printf("Capacity from disk: %zu probe points, %llu runs; "
                "re-derived operating point util %.3f (recorded "
                "%.3f)\n",
                byUtilization.size(),
                static_cast<unsigned long long>(capacity.runCount()),
                rederivedMax, recordedMax);
    if (!feasible || rederivedMax != recordedMax) {
        std::fprintf(stderr,
                     "re-derived operating point %.6f does not match "
                     "the recorded %.6f\n",
                     rederivedMax, recordedMax);
        return 1;
    }

    // ---- Bit-identical model refit against models.json ----
    const store::StudyReader factorial(root + "/factorial");
    const std::vector<analysis::QuantileModel> models =
        analysis::refitFromStore(factorial, factorialFit());
    const std::string refitText =
        analysis::toJson(models).dumpPretty() + "\n";
    const std::string liveText = readFile(root + "/factorial/models.json");
    if (liveText.empty())
        return 1;
    if (refitText != liveText) {
        std::fprintf(stderr,
                     "refit models differ from the live fit (%zu vs "
                     "%zu bytes)\n",
                     refitText.size(), liveText.size());
        return 1;
    }
    std::printf("Factorial refit: %zu models reproduced "
                "bit-identically from %llu stored runs\n",
                models.size(),
                static_cast<unsigned long long>(factorial.runCount()));
    std::printf("\n%s\n",
                analysis::renderCoefficientTable(models).c_str());

    // ---- Re-rank tail provenance from the stored rows ----
    const auto ranks = analysis::provenanceRankFromStore(factorial);
    if (ranks.empty()) {
        std::fprintf(stderr, "no provenance rows in the archive\n");
        return 1;
    }
    for (const auto &[tau, segments] : ranks) {
        std::printf("P%g provenance from disk (%zu segments):\n",
                    tau * 100.0, segments.size());
        for (std::size_t i = 0; i < segments.size() && i < 4; ++i)
            std::printf("  %-16s mean %8.1f us  share %5.1f%%  "
                        "(%zu runs)\n",
                        segments[i].name.c_str(), segments[i].meanUs,
                        segments[i].share * 100.0, segments[i].runs);
    }
    std::printf("Re-analysis complete: zero simulations run.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir = ".";
    bool refit = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--refit")
            refit = true;
        else
            dir = arg;
    }
    try {
        return refit ? refitStudy(dir) : runStudy(dir);
    } catch (const Error &e) {
        std::fprintf(stderr, "capacity_study: %s\n", e.what());
        return 1;
    }
}
