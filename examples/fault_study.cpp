/**
 * @file
 * Fault-aware attribution study: inject faults on a schedule and let
 * quantile regression identify which one owns the tail.
 *
 * The study runs a 2^2 factorial sweep over two injected fault
 * factors -- periodic server stalls (GC-style freezes) and NIC
 * interrupt storms -- with several replicates per cell through the
 * StudyDriver, exactly the treatment the paper applies to hardware
 * factors: take each run's aggregated per-instance quantile as the
 * response, perturb the dummy variables by 0.01 sd, and fit quantile
 * regression with all interaction terms at P50/P95/P99. Every cell
 * additionally carries the same brief packet-loss window so the
 * client resilience policy (timeout + retry) has something to absorb;
 * being identical across cells, it lands in the intercept, not in any
 * factor estimate.
 *
 * A multi-millisecond freeze delays every request that arrives during
 * the pause, so the stall factor should dominate the P99 model while
 * barely moving P50. The demo verifies exactly that and exits nonzero
 * otherwise, so CI can use it as a smoke test of the fault subsystem,
 * the resilience policy, and the attribution pipeline together.
 *
 * Run: ./build/examples/fault_study [output-dir]
 * Writes treadmill_fault_study.json into output-dir (default ".").
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/export.h"
#include "analysis/report.h"
#include "core/experiment.h"
#include "drive/study_driver.h"
#include "fault/plan.h"
#include "regress/design.h"
#include "util/json.h"

using namespace treadmill;

namespace {

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

/** One fault event as the JSON object FaultPlan::fromJson() accepts. */
json::Value
event(const char *kind, double startMs, double durationMs,
      json::Object extra)
{
    extra["kind"] = json::Value(kind);
    extra["start_ms"] = json::Value(startMs);
    extra["duration_ms"] = json::Value(durationMs);
    return json::Value(std::move(extra));
}

/**
 * The fault schedule for one factorial cell. Built through the JSON
 * schema (not the structs) so the study exercises the same config path
 * a file-driven plan would take.
 */
fault::FaultPlan
makePlan(bool stallHigh, bool stormHigh)
{
    json::Array events;

    // Fixed across every cell: a 30% loss window on one client uplink,
    // deliberately placed in the collector's warm-up/calibration phase.
    // The resilience policy retries the drops (the counters prove it)
    // while the measured quantiles stay a clean read on the factors.
    json::Object loss;
    loss["target"] = json::Value("client0-uplink");
    loss["loss_probability"] = json::Value(0.30);
    events.push_back(event("link_loss", 6.0, 8.0, std::move(loss)));

    if (stallHigh) {
        // 3 ms freeze every 40 ms: ~7% of requests arrive mid-pause
        // and eat up to 3 ms of queueing -- pure tail poison.
        json::Object stall;
        stall["period_ms"] = json::Value(40.0);
        stall["repeat"] = json::Value(50);
        events.push_back(
            event("server_stall", 20.0, 3.0, std::move(stall)));
    }
    if (stormHigh) {
        // Interrupt storm 8 ms out of every 40 ms: every request in
        // the window pays 10x interrupt-handling cost -- a broad but
        // shallow slowdown that moves the median more than the tail.
        json::Object storm;
        storm["period_ms"] = json::Value(40.0);
        storm["repeat"] = json::Value(50);
        storm["irq_cost_factor"] = json::Value(10.0);
        events.push_back(
            event("nic_storm", 30.0, 8.0, std::move(storm)));
    }

    json::Object doc;
    doc["events"] = json::Value(std::move(events));
    return fault::FaultPlan::fromJson(json::Value(std::move(doc)));
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : ".";
    constexpr unsigned kRepsPerCell = 8;

    drive::StudyDriverParams study;
    study.factors = {"stall", "nic_storm"};
    study.fit.quantiles = {0.5, 0.95, 0.99};
    study.fit.bootstrapReplicates = 200;
    study.fit.seed = 99;
    const regress::FactorialDesign design(study.factors);

    core::ExperimentParams base;
    base.targetUtilization = 0.6;
    base.collector.warmUpSamples = 300;
    base.collector.calibrationSamples = 300;
    base.collector.measurementSamples = 2500;
    // Pin the absolute rate so every cell drives identical load.
    base.requestsPerSecond = core::deriveRequestRate(base);
    // Timeout + retry so dropped packets are resent instead of leaking
    // outstanding requests; latency still spans from the original
    // intended send, so retried requests report their true cost. The
    // timeout sits above the worst stall-plus-drain latency: a tighter
    // one would retry every stalled request and feed a genuine retry
    // storm (duplicated load on an already frozen server).
    base.resilience.enabled = true;
    base.resilience.timeoutUs = 8000.0;
    base.resilience.maxRetries = 2;
    base.resilience.backoffBaseUs = 200.0;
    // Safety cap well above the ~0.2 s a healthy run needs; a
    // misconfigured overload run stops here instead of running away.
    base.deadline = seconds(2);

    // One run per (cell, replicate); seeds depend only on the index so
    // the sweep is reproducible under any parallelism.
    std::vector<drive::StudyRun> plan;
    for (unsigned cell = 0; cell < 4; ++cell) {
        const bool stallHigh = (cell & 1u) != 0;
        const bool stormHigh = (cell & 2u) != 0;
        for (unsigned rep = 0; rep < kRepsPerCell; ++rep) {
            drive::StudyRun run{
                base, {stallHigh ? 1.0 : 0.0, stormHigh ? 1.0 : 0.0}};
            run.params.faultPlan = makePlan(stallHigh, stormHigh);
            run.params.seed = 17 + 7919 * plan.size();
            plan.push_back(std::move(run));
        }
    }

    std::printf("Running %zu experiments (2^2 fault cells x %u reps, "
                "%.0f RPS each)...\n",
                plan.size(), kRepsPerCell, base.requestsPerSecond);
    const drive::StudyOutcome outcome = drive::StudyDriver(study).run(plan);

    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t drops = 0;
    std::uint64_t windows = 0;
    for (const std::string &snapshot : outcome.metrics) {
        const json::Value metrics = json::parse(snapshot);
        for (const auto &[name, value] :
             metrics.at("counters").asObject()) {
            const auto n = static_cast<std::uint64_t>(value.asInt());
            if (name.find(".retries") != std::string::npos)
                retries += n;
            else if (name.find(".timeouts") != std::string::npos)
                timeouts += n;
            else if (name.find(".dropped") != std::string::npos)
                drops += n;
            else if (name == "fault.windows_applied")
                windows += n;
        }
    }
    std::printf("  %llu fault windows applied; %llu packets dropped, "
                "%llu timeouts, %llu retries absorbed by the "
                "resilience policy\n",
                static_cast<unsigned long long>(windows),
                static_cast<unsigned long long>(drops),
                static_cast<unsigned long long>(timeouts),
                static_cast<unsigned long long>(retries));
    if (windows == 0 || drops == 0 || retries == 0) {
        std::fprintf(stderr,
                     "expected injected faults and retries; got "
                     "windows=%llu drops=%llu retries=%llu\n",
                     static_cast<unsigned long long>(windows),
                     static_cast<unsigned long long>(drops),
                     static_cast<unsigned long long>(retries));
        return 1;
    }

    const std::vector<analysis::QuantileModel> &models = outcome.models;
    std::printf("\n%s\n",
                analysis::renderCoefficientTable(models).c_str());

    // The acceptance check: at P99 the stall main effect must be the
    // dominant non-intercept coefficient and statistically significant.
    const analysis::QuantileModel *p99 = nullptr;
    for (const auto &m : models)
        if (m.tau == 0.99)
            p99 = &m;
    if (p99 == nullptr) {
        std::fprintf(stderr, "no P99 model fitted\n");
        return 1;
    }
    const std::size_t stallTerm = design.mainEffectTerm(0);
    const analysis::TermEstimate &stall = p99->terms[stallTerm];
    for (std::size_t t = 1; t < p99->terms.size(); ++t) {
        if (t == stallTerm)
            continue;
        if (std::fabs(p99->terms[t].estimate) >= stall.estimate) {
            std::fprintf(stderr,
                         "P99 term %s (%.1f us) outranks the injected "
                         "stall (%.1f us)\n",
                         p99->terms[t].name.c_str(),
                         p99->terms[t].estimate, stall.estimate);
            return 1;
        }
    }
    if (stall.pValue > 0.05) {
        std::fprintf(stderr,
                     "stall P99 effect not significant (p = %.3f)\n",
                     stall.pValue);
        return 1;
    }
    std::printf("Injected '%s' is the dominant P99 contributor: "
                "+%.1f us (p = %.4f)\n",
                stall.name.c_str(), stall.estimate, stall.pValue);

    json::Array obs;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        json::Object row;
        row["stall"] = json::Value(plan[i].levels[0]);
        row["nic_storm"] = json::Value(plan[i].levels[1]);
        row["seed"] = json::Value(
            static_cast<std::int64_t>(plan[i].params.seed));
        for (const auto &[q, response] : outcome.responses) {
            char key[16];
            std::snprintf(key, sizeof key, "p%.0f_us", q * 100.0);
            row[key] = json::Value(response[i]);
        }
        obs.push_back(json::Value(std::move(row)));
    }
    json::Object doc;
    doc["design"] = [&] {
        json::Array names;
        for (const auto &n : design.termNames())
            names.push_back(json::Value(n));
        return json::Value(std::move(names));
    }();
    doc["observations"] = json::Value(std::move(obs));
    doc["models"] = analysis::toJson(models);

    const std::string path = dir + "/treadmill_fault_study.json";
    if (!writeFile(path,
                   json::Value(std::move(doc)).dumpPretty() + "\n"))
        return 1;
    std::printf("\nWrote %s\n", path.c_str());
    return 0;
}
