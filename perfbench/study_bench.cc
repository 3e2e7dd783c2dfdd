/**
 * @file
 * Study benchmark: three Treadmill-shaped studies driven through the
 * public API only (drive::StudyDriver, core::runExperiment, the run
 * store, the analysis entry points).
 *
 * Untraced pass (--trace 0): set-up time (building the workload), a
 * single-thread lane of plan entries (ns per simulated request, per-run
 * wall quantiles, failure and health shares), and repeated whole
 * studies at N threads (study wall time, archive opening included),
 * then the answer checks.
 *
 * Traced pass (--trace 1): the per-layer ledger. Every layer is
 * measured from outside: a serial pass that times each public call,
 * reads each run's metrics snapshot by counter totals and counts
 * allocations, paired ablations that change one ExperimentParams field,
 * a Simulation schedule+step kernel, and RSS probes in child
 * processes. Nothing inside src/ is instrumented.
 *
 * The last stdout line is one JSON object: correct, attempted, failed,
 * metrics. Any failed check exits non-zero. See NOTES.md.
 */

#include <alloca.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/attribution.h"
#include "analysis/provenance.h"
#include "analysis/refit.h"
#include "core/experiment.h"
#include "core/run_record.h"
#include "core/workload.h"
#include "drive/study_driver.h"
#include "exec/parallel_for.h"
#include "hw/hardware_config.h"
#include "regress/design.h"
#include "sim/simulation.h"
#include "store/reader.h"
#include "store/writer.h"
#include "util/alloc_counter.h"
#include "util/json.h"
#include "util/rng.h"

using namespace treadmill;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile: the smallest sample with at least q of the
 *  samples at or below it. */
double
nearestRank(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// ---------------------------------------------------------------- CLI

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    /** Deliberately perturb the input of one check (self-test). */
    std::string perturb;
    /** Child-process mode, run by the traced pass: "rss_on"/"rss_off"
     *  run plan entry 0 with tracing on/off and print the peak RSS;
     *  "reference" times the plan without the allocation hook. */
    std::string probe;
    std::string dataDir = "perfbench/workloads";
    std::string workDir = ".bench_build/work";
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "tmbench: %s\n"
                 "usage: tmbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--size full|tiny] "
                 "[--perturb CHECK] [--data-dir D] [--work-dir D]\n",
                 msg.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = value;
            else if (flag == "--seed")
                o.seed = std::stoull(value);
            else if (flag == "--seconds")
                o.seconds = std::stod(value);
            else if (flag == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (flag == "--size")
                o.tiny = value == "tiny";
            else if (flag == "--perturb")
                o.perturb = value;
            else if (flag == "--probe")
                o.probe = value;
            else if (flag == "--data-dir")
                o.dataDir = value;
            else if (flag == "--work-dir")
                o.workDir = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

/** The study pool's size: the caller's thread (refits) and
 *  StudyDriver's producer are part of the nproc budget, so the pool
 *  gets one core less. */
unsigned
poolThreads()
{
    static const unsigned threads =
        std::max(1u, std::max(1u, std::thread::hardware_concurrency()) - 1);
    return threads;
}

// ---------------------------------------------------------- workloads

/** One study: its plan, its fit, and how its study is driven. */
struct Workload {
    std::string name;
    std::vector<std::string> factors;
    std::vector<drive::StudyRun> plan;
    analysis::FactorialFitParams fit;
    unsigned refitEvery = 0;
    bool archive = false;
    bool provenance = false;
    /** The base every plan entry was derived from: the archive's
     *  config digest and the request mix. */
    core::ExperimentParams base;
};

const std::vector<double> kProvenanceTaus{0.5, 0.99};

std::uint64_t
mix(std::uint64_t seed, std::uint64_t i)
{
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + i;
    return splitmix64(x);
}

/** Seeded Fisher-Yates: the randomized run order of the paper. */
template <typename T>
void
shuffle(std::vector<T> &v, std::uint64_t seed)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[mix(seed, i) % i]);
}

core::WorkloadConfig
loadMix(const Options &o, const std::string &file)
{
    return core::WorkloadConfig::fromJson(
        json::parseFile(o.dataDir + "/" + file));
}

fault::FaultEvent
backendStall(int backend, SimDuration duration, SimDuration period)
{
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::ServerStall;
    ev.backend = backend;
    ev.start = milliseconds(20);
    ev.duration = duration;
    ev.period = period;
    ev.repeatCount = 100;
    return ev;
}

void
addRun(Workload &w, core::ExperimentParams p, std::vector<double> levels,
       std::uint64_t seed)
{
    p.seed = mix(seed, w.plan.size());
    w.plan.push_back({std::move(p), std::move(levels)});
}

/** Paper SIV-V: one Memcached server, the ETC mix at 0.65 utilization,
 *  the full 2^4 {numa, turbo, dvfs, nic} factorial in random order. */
Workload
makeHwFactorial(const Options &o)
{
    Workload w;
    w.name = "hw_factorial";
    w.factors = hw::factorNames();
    core::ExperimentParams &base = w.base;
    base.kind = core::WorkloadKind::Memcached;
    base.workload = loadMix(o, "memcached_facebook_etc.json");
    base.targetUtilization = 0.65;
    base.collector.warmUpSamples = 300;
    base.collector.calibrationSamples = 300;
    base.collector.measurementSamples = o.tiny ? 1500 : 2500;
    base.deadline = seconds(2);
    base.requestsPerSecond = core::deriveRequestRate(base);

    const unsigned reps = o.tiny ? 2 : 3;
    std::vector<unsigned> cells;
    for (unsigned cell = 0; cell < 16; ++cell)
        for (unsigned rep = 0; rep < reps; ++rep)
            cells.push_back(cell);
    shuffle(cells, o.seed);
    for (unsigned cell : cells) {
        core::ExperimentParams p = base;
        p.config = hw::HardwareConfig::fromIndex(cell);
        const auto lv = p.config.levels();
        addRun(w, std::move(p), {lv.begin(), lv.end()}, o.seed);
    }
    w.fit.quantiles = {0.5, 0.95, 0.99};
    w.fit.bootstrapReplicates = o.tiny ? 20 : 50;
    w.fit.seed = o.seed;
    w.refitEvery = 16;
    return w;
}

/** An mcrouter over an 8-backend cluster (replication 2) under the
 *  write-heavy mix with link loss and client retries; 2^2 over
 *  {backend2_stall, p2c}; every run archived, then refit from the
 *  archive. */
Workload
makeClusterWriteFaults(const Options &o)
{
    Workload w;
    w.name = "cluster_write_faults";
    w.factors = {"backend2_stall", "p2c"};
    w.archive = true;
    core::ExperimentParams &base = w.base;
    base.kind = core::WorkloadKind::Mcrouter;
    base.workload = loadMix(o, "memcached_write_heavy.json");
    base.targetUtilization = 0.5;
    base.collector.warmUpSamples = 300;
    base.collector.calibrationSamples = 300;
    base.collector.measurementSamples = o.tiny ? 1000 : 2000;
    base.cluster.backends = 8;
    base.cluster.replication = 2;
    base.deadline = seconds(2);
    base.requestsPerSecond = core::deriveRequestRate(base);
    base.resilience.enabled = true;
    base.resilience.timeoutUs = 3000.0;
    base.resilience.maxRetries = 2;
    fault::FaultEvent loss;
    loss.kind = fault::FaultKind::LinkLoss;
    loss.start = milliseconds(5);
    loss.duration = seconds(2);
    // Rare enough that lost-packet retries (a 3 ms timeout each) stay
    // below the P99 band, which the stall must own.
    loss.lossProbability = 0.0005;
    base.faultPlan.events.push_back(loss);

    const unsigned reps = o.tiny ? 3 : 6;
    std::vector<unsigned> cells;
    for (unsigned cell = 0; cell < 4; ++cell)
        for (unsigned rep = 0; rep < reps; ++rep)
            cells.push_back(cell);
    shuffle(cells, o.seed);
    for (unsigned cell : cells) {
        const bool stall = (cell & 1u) != 0;
        const bool p2c = (cell & 2u) != 0;
        core::ExperimentParams p = base;
        if (stall)
            p.faultPlan.events.push_back(backendStall(
                2, milliseconds(5), milliseconds(25)));
        p.cluster.policy =
            p2c ? lb::PolicyKind::PowerOfTwo : lb::PolicyKind::Fcfs;
        addRun(w, std::move(p), {stall ? 1.0 : 0.0, p2c ? 1.0 : 0.0},
               o.seed);
    }
    w.fit.quantiles = {0.5, 0.95, 0.99};
    w.fit.bootstrapReplicates = o.tiny ? 30 : 100;
    w.fit.seed = o.seed;
    w.refitEvery = 8;
    return w;
}

/** cluster_study's provenance cell as a plan: an mcrouter over 4
 *  backends, shard 2 stalling, spans on every request and telemetry,
 *  hedging as the factor; archived with provenance rows. */
Workload
makeTracedProvenance(const Options &o)
{
    Workload w;
    w.name = "traced_provenance";
    w.factors = {"hedge"};
    w.archive = true;
    w.provenance = true;
    core::ExperimentParams &base = w.base;
    base.kind = core::WorkloadKind::Mcrouter;
    base.targetUtilization = 0.5;
    base.collector.warmUpSamples = 300;
    base.collector.calibrationSamples = 300;
    base.collector.measurementSamples = o.tiny ? 1000 : 2500;
    base.cluster.backends = 4;
    base.cluster.replication = 2;
    base.deadline = seconds(2);
    base.requestsPerSecond = core::deriveRequestRate(base);
    base.faultPlan.events.push_back(
        backendStall(2, milliseconds(3), milliseconds(40)));
    base.resilience.enabled = true;
    base.resilience.hedgeDelayUs = 1000.0;
    base.trace.enabled = true;
    base.telemetry.enabled = true;
    base.telemetry.periodUs = 500.0;

    const unsigned reps = o.tiny ? 2 : 9;
    std::vector<unsigned> cells;
    for (unsigned cell = 0; cell < 2; ++cell)
        for (unsigned rep = 0; rep < reps; ++rep)
            cells.push_back(cell);
    shuffle(cells, o.seed);
    for (unsigned cell : cells) {
        core::ExperimentParams p = base;
        p.resilience.hedge = cell != 0;
        addRun(w, std::move(p), {cell != 0 ? 1.0 : 0.0}, o.seed);
    }
    w.fit.quantiles = kProvenanceTaus;
    w.fit.bootstrapReplicates = o.tiny ? 30 : 100;
    w.fit.seed = o.seed;
    w.refitEvery = 4;
    return w;
}

Workload
makeWorkload(const Options &o)
{
    if (o.workload == "hw_factorial")
        return makeHwFactorial(o);
    if (o.workload == "cluster_write_faults")
        return makeClusterWriteFaults(o);
    if (o.workload == "traced_provenance")
        return makeTracedProvenance(o);
    usage("unknown workload " + o.workload);
}

std::vector<double>
sortedTaus(std::vector<double> taus)
{
    std::sort(taus.begin(), taus.end());
    taus.erase(std::unique(taus.begin(), taus.end()), taus.end());
    return taus;
}

/** Open (or reopen for overwrite) @p w's archive in @p dir. */
std::unique_ptr<store::StudyWriter>
openArchive(const Workload &w, const std::string &dir)
{
    store::StudyMeta meta;
    meta.name = w.name;
    meta.factors = w.factors;
    meta.quantiles = sortedTaus(w.fit.quantiles);
    meta.configDigest = core::configDigest(w.base);
    return std::make_unique<store::StudyWriter>(
        dir, std::move(meta), store::StudyWriter::Options{true});
}

// -------------------------------------------------------------- checks

struct Checks {
    std::vector<std::string> failed;

    void
    expect(bool ok, const std::string &name, const std::string &detail)
    {
        std::printf("check %-18s %s  %s\n", name.c_str(),
                    ok ? "ok    " : "FAILED", detail.c_str());
        if (!ok)
            failed.push_back(name);
    }
};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameResponses(const std::map<double, std::vector<double>> &a,
              const std::map<double, std::vector<double>> &b)
{
    if (a.size() != b.size())
        return false;
    for (const auto &[tau, v] : a) {
        const auto it = b.find(tau);
        if (it == b.end() || it->second.size() != v.size())
            return false;
        for (std::size_t i = 0; i < v.size(); ++i)
            if (!sameBits(v[i], it->second[i]))
                return false;
    }
    return true;
}

bool
sameModels(const std::vector<analysis::QuantileModel> &a,
           const std::vector<analysis::QuantileModel> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t m = 0; m < a.size(); ++m) {
        if (!sameBits(a[m].tau, b[m].tau) ||
            !sameBits(a[m].pseudoR2, b[m].pseudoR2) ||
            a[m].terms.size() != b[m].terms.size())
            return false;
        for (std::size_t t = 0; t < a[m].terms.size(); ++t) {
            const auto &x = a[m].terms[t];
            const auto &y = b[m].terms[t];
            if (!sameBits(x.estimate, y.estimate) ||
                !sameBits(x.standardError, y.standardError) ||
                !sameBits(x.pValue, y.pValue))
                return false;
        }
    }
    return true;
}

/** FNV-1a over the bit patterns of every response and coefficient: two
 *  builds with equal digests produced byte-identical study answers. */
std::uint64_t
resultDigest(const std::map<double, std::vector<double>> &responses,
             const std::vector<analysis::QuantileModel> &models)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto add = [&h](double d) {
        unsigned char bytes[sizeof d];
        std::memcpy(bytes, &d, sizeof d);
        for (unsigned char b : bytes) {
            h ^= b;
            h *= 1099511628211ull;
        }
    };
    for (const auto &[tau, v] : responses) {
        add(tau);
        for (double x : v)
            add(x);
    }
    for (const auto &m : models) {
        add(m.tau);
        add(m.pseudoR2);
        for (const auto &t : m.terms) {
            add(t.estimate);
            add(t.standardError);
            add(t.pValue);
        }
    }
    return h;
}

const analysis::QuantileModel &
modelAt(const std::vector<analysis::QuantileModel> &models, double tau)
{
    for (const auto &m : models)
        if (m.tau == tau)
            return m;
    throw std::runtime_error("no model fitted at the requested tau");
}

/** Mean predicted change when factor @p f goes high, over every
 *  setting of the other factors (the paper's Fig 8 average impact). */
double
averageImpact(const analysis::QuantileModel &m,
              const regress::FactorialDesign &design, std::size_t f)
{
    const std::size_t k = design.factorCount();
    double total = 0.0;
    unsigned count = 0;
    for (std::size_t others = 0; others < (std::size_t{1} << k);
         ++others) {
        if (others & (std::size_t{1} << f))
            continue;
        std::vector<double> low(k);
        for (std::size_t j = 0; j < k; ++j)
            low[j] = (others >> j) & 1u ? 1.0 : 0.0;
        std::vector<double> high = low;
        high[f] = 1.0;
        total += m.fit.predict(design.designRow(high)) -
                 m.fit.predict(design.designRow(low));
        ++count;
    }
    return total / count;
}

bool
isWaitSegment(std::uint64_t kind)
{
    using K = obs::SegmentKind;
    for (K k : {K::BackendQueue, K::HedgeWait, K::TimeoutWait,
                K::FailoverWait, K::RetryBackoff, K::LbQueue})
        if (kind == static_cast<std::uint64_t>(k))
            return true;
    return false;
}

/** Runs whose P99 provenance band names shard 2 first, of runs with
 *  spans (traced_provenance's backend attribution). */
struct ShardAttribution {
    std::size_t runs = 0;
    std::size_t onShard2 = 0;

    void
    add(const analysis::ProvenanceReport &report)
    {
        const auto &p99 = report.at(0.99);
        ++runs;
        if (!p99.backends.empty() && p99.backends.front().backendId == 2)
            ++onShard2;
    }
};

/**
 * The study's expected answer (paper Findings; cluster_study):
 * numa hurts and turbo helps the hw P99; the stalled backend owns the
 * cluster P99 model; the traced P99 band is wait-dominated and owned by
 * the stalled shard.
 */
void
checkAnswer(const Options &o, const Workload &w,
            std::map<double, std::vector<double>> responses,
            const std::vector<std::vector<double>> &levels,
            const std::vector<analysis::QuantileModel> &models,
            std::map<double, std::vector<analysis::StoredProvenanceRank>>
                ranks,
            ShardAttribution shards, Checks &checks)
{
    const bool perturb = o.perturb == "answer";
    const regress::FactorialDesign design(w.factors);
    char detail[256];
    if (w.name == "hw_factorial") {
        std::vector<analysis::QuantileModel> fitted = models;
        if (perturb) {
            // Make numa look like an improvement.
            for (std::size_t i = 0; i < levels.size(); ++i)
                if (levels[i][0] > 0.5)
                    responses[0.99][i] -= 5000.0;
            fitted = analysis::fitFactorialModels(design, levels,
                                                  responses, w.fit);
        }
        const auto &p99 = modelAt(fitted, 0.99);
        const double numa = averageImpact(p99, design, 0);
        const double turbo = averageImpact(p99, design, 1);
        std::snprintf(detail, sizeof detail,
                      "P99 average impact numa %+.1f us, turbo %+.1f us",
                      numa, turbo);
        checks.expect(numa > 0.0 && turbo < 0.0, "answer", detail);
    } else if (w.name == "cluster_write_faults") {
        std::vector<analysis::QuantileModel> fitted = models;
        if (perturb) {
            // Make the balancer policy look like the tail's owner.
            for (std::size_t i = 0; i < levels.size(); ++i)
                if (levels[i][1] > 0.5)
                    responses[0.99][i] += 1e5;
            fitted = analysis::fitFactorialModels(design, levels,
                                                  responses, w.fit);
        }
        const auto &p99 = modelAt(fitted, 0.99);
        // The stall must be the largest main effect. The stall:p2c
        // interaction is p2c routing around the frozen shard, which
        // can cancel most of the stall, so it is reported, not ranked.
        const double stall = p99.terms[design.mainEffectTerm(0)].estimate;
        const double p2c = p99.terms[design.mainEffectTerm(1)].estimate;
        const double both = p99.terms.back().estimate;
        std::snprintf(detail, sizeof detail,
                      "P99 terms: backend2_stall %+.1f us, p2c %+.1f us, "
                      "backend2_stall:p2c %+.1f us",
                      stall, p2c, both);
        checks.expect(stall > 0.0 && stall > std::fabs(p2c), "answer",
                      detail);
    } else {
        auto &p99 = ranks[0.99];
        if (perturb) {
            if (!p99.empty())
                p99.front().kind =
                    static_cast<std::uint64_t>(obs::SegmentKind::Service);
            shards.onShard2 = 0;
        }
        const bool wait = !p99.empty() && isWaitSegment(p99.front().kind);
        const bool shard2 = shards.runs > 0 && shards.onShard2 == shards.runs;
        std::snprintf(detail, sizeof detail,
                      "P99 band led by %s; shard 2 leads %zu/%zu runs",
                      p99.empty() ? "nothing" : p99.front().name.c_str(),
                      shards.onShard2, shards.runs);
        checks.expect(wait && shard2, "answer", detail);
    }
}

// ------------------------------------------------------- run tallying

/** Sum of every counter whose name starts with @p prefix and ends with
 *  @p suffix; `found` is false when no counter matched (a counter a
 *  later change renamed or removed reads as absent, not as a crash). */
struct Total {
    double value = 0.0;
    bool found = false;
};

void
addCounters(Total &t, const json::Value &metrics, const std::string &prefix,
            const std::string &suffix)
{
    if (!metrics.contains("counters"))
        return;
    for (const auto &[name, v] : metrics.at("counters").asObject()) {
        if (name.size() < prefix.size() + suffix.size() ||
            name.compare(0, prefix.size(), prefix) != 0 ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        t.value += v.asNumber();
        t.found = true;
    }
}

/** Counter groups read from every run's metrics snapshot. */
struct CounterSpec {
    const char *id;
    const char *prefix;
    const char *suffix;
};
const CounterSpec kCounters[] = {
    {"issued", "client", ".issued"},
    {"received", "client", ".received"},
    {"retries", "client", ".retries"},
    {"hedges", "client", ".hedges"},
    {"events", "sim.events_executed", ""},
    {"cancels", "sim.events_cancelled", ""},
    {"net_packets", "net.", ".packets"},
    {"net_bytes", "net.", ".bytes"},
    {"net_drops", "net.", ".dropped"},
    {"hits", "server.hits", ""},
    {"misses", "server.misses", ""},
    {"lb_dispatched", "lb.dispatched", ""},
    {"lb_failovers", "lb.failovers", ""},
    {"lb_queued", "lb.queued", ""},
    {"fault_windows", "fault.windows_applied", ""},
    {"fault_stalled", "", ".fault.stalled"},
};

struct Tally {
    std::size_t runs = 0;
    double wallNs = 0.0;
    std::vector<double> runMs;
    std::map<std::string, Total> counters;
    /** Health reasons (a run can have several). */
    std::size_t deadline = 0, shortOfTarget = 0, unmatched = 0,
                outstanding = 0, unhealthy = 0, unhealthyStrict = 0;
    double freqTransitions = 0.0, serverUtil = 0.0, spans = 0.0;
    Total slipP99; ///< Sum over runs of the count-weighted client P99.
    double allocs = 0.0;

    double
    get(const std::string &id) const
    {
        const auto it = counters.find(id);
        return it == counters.end() ? 0.0 : it->second.value;
    }
    bool
    has(const std::string &id) const
    {
        const auto it = counters.find(id);
        return it != counters.end() && it->second.found;
    }

    void
    add(const core::ExperimentResult &r, double ns)
    {
        ++runs;
        wallNs += ns;
        runMs.push_back(ns / 1e6);
        for (const CounterSpec &c : kCounters)
            addCounters(counters[c.id], r.metrics, c.prefix, c.suffix);

        const bool shortRun = r.instancesAtTarget() != r.instances.size();
        deadline += r.deadlineHit;
        shortOfTarget += shortRun;
        unmatched += r.captureUnmatchedResponses > 0;
        outstanding += r.captureOutstanding > 0;
        const bool bad = r.deadlineHit || shortRun ||
                         r.captureUnmatchedResponses > 0;
        unhealthy += bad;
        unhealthyStrict += bad || r.captureOutstanding > 0;

        freqTransitions += static_cast<double>(r.frequencyTransitions);
        serverUtil += r.serverUtilization;
        spans += static_cast<double>(r.spans.size());

        if (r.metrics.contains("histograms")) {
            double weighted = 0.0, count = 0.0;
            for (const auto &[name, h] :
                 r.metrics.at("histograms").asObject()) {
                if (name.rfind("client", 0) != 0 ||
                    name.size() < 13 ||
                    name.compare(name.size() - 13, 13, ".send_slip_us") != 0)
                    continue;
                const double n = h.numberOr("count", 0.0);
                weighted += n * h.numberOr("p99", 0.0);
                count += n;
            }
            if (count > 0.0) {
                slipP99.value += weighted / count;
                slipP99.found = true;
            }
        }
    }
};

/** Restart the kernel's peak-RSS mark at the current RSS (Linux
 *  clear_refs "5"); false where unsupported. */
bool
resetPeakRss()
{
    std::ofstream refs("/proc/self/clear_refs");
    refs << "5";
    refs.flush();
    return refs.good();
}

double
vmHwmKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr);
    return -1.0;
}

// ----------------------------------------------------------- reporting

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    bool present = true;
};

struct Report {
    std::vector<Metric> metrics;
    std::size_t attempted = 0;
    std::size_t failedRuns = 0;

    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "", bool present = true)
    {
        metrics.push_back({name, value, unit, present});
        if (present)
            std::printf("  %-34s = %16.9g %-10s %s\n", name.c_str(), value,
                        unit.c_str(), note.c_str());
        else
            std::printf("  %-34s = %16s %-10s %s\n", name.c_str(),
                        "absent", unit.c_str(), note.c_str());
    }

    void
    count(const Tally &t)
    {
        attempted += t.runs;
        failedRuns += t.unhealthy;
    }
};

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(const Report &rep, const std::vector<std::string> &names,
            bool correct)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(std::max<std::size_t>(1, rep.attempted));
    out += ", \"failed\": " + std::to_string(rep.failedRuns);
    out += ", \"metrics\": {";
    bool first = true;
    for (const std::string &name : names) {
        for (const Metric &m : rep.metrics) {
            if (m.name != name)
                continue;
            out += first ? "" : ", ";
            first = false;
            out += "\"" + m.name + "\": {\"value\": " +
                   (m.present && std::isfinite(m.value) ? jsonNumber(m.value)
                                                        : "null") +
                   ", \"unit\": \"" + m.unit + "\"}";
            break;
        }
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

std::string
cpuModel()
{
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

void
printMetadata(const Options &o)
{
#ifndef TM_BENCH_BUILD_TYPE
#define TM_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef TM_BENCH_COMMIT
#define TM_BENCH_COMMIT "unknown"
#endif
    const std::string buildType = TM_BENCH_BUILD_TYPE;
    std::printf("# workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, o.tiny ? "tiny" : "full");
    std::printf("# nproc=%u threads=%u cpu=\"%s\" compiler=\"%s\" "
                "build_type=%s commit=%s\n",
                std::thread::hardware_concurrency(), poolThreads(),
                cpuModel().c_str(), __VERSION__, buildType.c_str(),
                TM_BENCH_COMMIT);
    bool asserts = false;
#ifndef NDEBUG
    asserts = true;
#endif
    if (buildType != "Release" || asserts)
        std::printf("# WARNING: the simulator is not a Release build "
                    "(build_type=%s%s); timings are not comparable\n",
                    buildType.c_str(), asserts ? ", asserts on" : "");
}

// ---------------------------------------------------------- the study

struct StudyResult {
    drive::StudyOutcome outcome;
    std::vector<analysis::QuantileModel> refit;
    std::map<double, std::vector<analysis::StoredProvenanceRank>> ranks;
    double seconds = 0.0; ///< First simulation to final answer.
};

/** One study, timed from opening its archive (when @p archiveDir is
 *  set) to the final models, refit and ranking. */
StudyResult
runStudy(const Workload &w, const std::string &archiveDir, unsigned threads,
         unsigned refitEvery)
{
    drive::StudyDriverParams dp;
    dp.factors = w.factors;
    dp.fit = w.fit;
    dp.refitEvery = refitEvery;
    dp.attachProvenance = w.provenance;
    dp.provenanceQuantiles = kProvenanceTaus;
    dp.parallelism = exec::Parallelism{threads};
    drive::StudyDriver driver(dp);

    StudyResult s;
    const auto t0 = Clock::now();
    const auto writer =
        archiveDir.empty() ? nullptr : openArchive(w, archiveDir);
    s.outcome = driver.run(w.plan, writer.get());
    if (writer) {
        writer->finish();
        const store::StudyReader reader(writer->directory());
        s.refit = analysis::refitFromStore(reader, w.fit);
        if (w.provenance)
            s.ranks = analysis::provenanceRankFromStore(reader);
    }
    s.seconds = secondsSince(t0);
    return s;
}

/** refitFromStore must reproduce the live fit bit for bit. */
bool
refitMatches(const Options &o, const StudyResult &s,
             const std::vector<analysis::QuantileModel> &live)
{
    std::vector<analysis::QuantileModel> refit = s.refit;
    if (o.perturb == "refit" && !refit.empty() && refit[0].terms.size() > 1)
        refit[0].terms[1].estimate =
            std::nextafter(refit[0].terms[1].estimate, 1e300);
    return sameModels(refit, live);
}

const char *const kRefitDetail =
    "refitFromStore coefficients == live fit, bit for bit";

std::vector<double>
responsesOf(const core::ExperimentResult &r, const std::vector<double> &taus)
{
    std::vector<double> out;
    for (double tau : taus)
        out.push_back(
            r.aggregatedQuantile(tau, core::AggregationKind::PerInstance));
    return out;
}

// ---------------------------------------------------- untraced pass

/** Set-up takes microseconds, and where the stack and the heap happen
 *  to sit moved it by up to 1.6x from one process to the next on a
 *  4-core AMD EPYC VM. Each
 *  sample shifts both by another multiple of a cache line, so the
 *  median is taken over the same spread of layouts in every process. */
constexpr std::size_t kSetupLayouts = 64;

[[gnu::noinline]] double
timedSetup(const Options &o, std::size_t stackShift)
{
    volatile char *shift = static_cast<char *>(alloca(stackShift));
    shift[0] = 0;
    const auto t0 = Clock::now();
    const Workload w = makeWorkload(o);
    return secondsSince(t0);
}

int
untracedPass(const Options &o, const std::string &work)
{
    Report rep;
    Checks checks;
    const auto start = Clock::now();

    // Warm caches and lazy set-up before timing.
    const Workload w = makeWorkload(o);
    core::runExperiment(w.plan.front().params);

    // setup_s: building the workload -- JSON parsing,
    // deriveRequestRate and the plan. Opening the archive is timed
    // inside study_s instead: it is a handful of file-system calls
    // whose latency varies 2-3x from one process to the next, which
    // would swamp a few microseconds of set-up work. The samples are
    // spread over the run, a batch before each lane pass.
    std::vector<double> setupS;

    // A lane pass, then a whole study, until the time is up: both
    // sample the same stretch of host conditions. The lane runs whole
    // passes over the plan on one thread, untraced by the benchmark
    // (plan entries keep their own tracing settings).
    const std::size_t minRuns = o.tiny ? w.plan.size() : 100;
    const std::size_t minStudies = o.tiny ? 2 : 3;
    const std::string archiveDir = w.archive ? work + "/study" : "";
    Tally lane, firstPass;
    ShardAttribution shards;
    std::vector<double> passNsPerReq, studyS, studyRssKb;
    std::vector<std::uint64_t> digests;
    StudyResult last;
    bool refitOk = true;
    for (std::size_t pass = 0;
         lane.runs < minRuns || studyS.size() < minStudies ||
         setupS.size() < kSetupLayouts || secondsSince(start) < o.seconds;
         ++pass) {
        for (int k = 0; k < 16; ++k) {
            const std::size_t shift = 64 * (setupS.size() % kSetupLayouts);
            const std::vector<char> heapShift(shift + 1);
            setupS.push_back(timedSetup(o, shift + 1));
        }

        const double wall0 = lane.wallNs, req0 = lane.get("received");
        for (const drive::StudyRun &run : w.plan) {
            const auto t0 = Clock::now();
            const core::ExperimentResult r = core::runExperiment(run.params);
            const double ns =
                std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count();
            lane.add(r, ns);
            if (pass == 0) {
                firstPass.add(r, ns);
                if (!r.spans.empty())
                    shards.add(analysis::tailProvenance(r.spans,
                                                        kProvenanceTaus));
            }
        }
        passNsPerReq.push_back((lane.wallNs - wall0) /
                               (lane.get("received") - req0));

        if (w.archive)
            fs::remove_all(archiveDir);
        // Each study's peak starts from a trimmed heap, so what the
        // allocator kept from earlier work does not ride on it.
        malloc_trim(0);
        const bool peakReset = resetPeakRss();
        last = runStudy(w, archiveDir, poolThreads(), w.refitEvery);
        studyS.push_back(last.seconds);
        if (peakReset)
            studyRssKb.push_back(vmHwmKb());
        digests.push_back(resultDigest(last.outcome.responses,
                                       last.outcome.models));
        rep.attempted += last.outcome.runs;
        if (w.archive)
            refitOk = refitOk && refitMatches(o, last, last.outcome.models);
    }
    rep.count(lane);
    if (w.archive)
        checks.expect(refitOk, "refit",
                      kRefitDetail + std::string(", every study"));

    if (o.perturb == "repeatability")
        digests.back() ^= 1;
    bool repeatable = true;
    for (std::uint64_t d : digests)
        repeatable = repeatable && d == digests.front();
    checks.expect(repeatable, "repeatability",
                  std::to_string(digests.size()) +
                      " studies at " + std::to_string(poolThreads()) +
                      " threads gave one result_digest");
    checkAnswer(o, w, last.outcome.responses, last.outcome.levels,
                last.outcome.models, last.ranks, shards, checks);

    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(digests.front()));
    std::printf("result_digest %s %s\n", w.name.c_str(), digest);

    const double issued = firstPass.get("issued");
    const double received = firstPass.get("received");
    std::printf("[%s] end-to-end (lane %zu runs, %zu studies of %zu runs "
                "at %u threads)\n",
                w.name.c_str(), lane.runs, studyS.size(), w.plan.size(),
                poolThreads());
    rep.add("study_s", median(studyS), "s",
            "median of " + std::to_string(studyS.size()) + " studies");
    rep.add("setup_s", median(setupS), "s",
            "median of " + std::to_string(setupS.size()) +
                " set-ups, each at another stack and heap shift");
    rep.add("ns_per_req", median(passNsPerReq), "ns/req",
            "median over " + std::to_string(passNsPerReq.size()) +
                " plan passes of pass wall / completed requests");
    rep.add("run_ms_p50", median(lane.runMs), "ms",
            "n=" + std::to_string(lane.runs));
    rep.add("run_ms_p90", nearestRank(lane.runMs, 0.9), "ms",
            "n=" + std::to_string(lane.runs) + ", " +
                std::to_string(lane.runs - static_cast<std::size_t>(
                                               std::ceil(0.9 * lane.runs))) +
                " runs beyond");
    // The study's own peak: the kernel mark is restarted before each
    // study, so the lane's peak cannot hide in it.
    const bool perStudy = studyRssKb.size() == studyS.size();
    rep.add("peak_rss_mb",
            (perStudy ? median(studyRssKb) : vmHwmKb()) / 1024.0, "MB",
            perStudy ? "VmHWM per study, median" : "VmHWM of the process",
            vmHwmKb() > 0.0);
    rep.add("req_fail_frac", (issued - received) / issued, "ratio",
            "issued but not completed by run end, one plan pass");
    rep.add("req_ok_frac", received / issued, "ratio",
            "completed / issued, one plan pass");
    rep.add("healthy_run_frac",
            1.0 - static_cast<double>(firstPass.unhealthy) / firstPass.runs,
            "ratio", "no deadline, every instance at target, no unmatched "
                     "capture");
    rep.add("unhealthy_run_frac",
            static_cast<double>(firstPass.unhealthyStrict) / firstPass.runs,
            "ratio",
            "reasons over " + std::to_string(firstPass.runs) +
                " runs: deadline " + std::to_string(firstPass.deadline) +
                ", short of target " +
                std::to_string(firstPass.shortOfTarget) + ", unmatched " +
                std::to_string(firstPass.unmatched) +
                ", capture outstanding at end " +
                std::to_string(firstPass.outstanding));

    for (const auto &[name, v] : {std::pair{"setup_s", &setupS},
                                  std::pair{"study_s", &studyS}})
        std::printf("  %s samples: min %.6f s, max %.6f s\n", name,
                    *std::min_element(v->begin(), v->end()),
                    *std::max_element(v->begin(), v->end()));
    printResult(rep,
                {"study_s", "setup_s", "ns_per_req", "run_ms_p50",
                 "peak_rss_mb", "req_ok_frac", "healthy_run_frac"},
                checks.failed.empty());
    return checks.failed.empty() ? 0 : 1;
}

// ------------------------------------------------------ traced pass

/** Cumulative ablations: each variant removes one more layer than the
 *  one before it, so the per-layer deltas telescope from the base run
 *  to the bare one and no layer's cost is counted twice. The faults go
 *  before the balancer tier, because most of them aim at its backends. */
enum Variant { Base, NoTrace, NoTelemetry, NoFault, NoLb, kVariants };
const char *const kVariantNames[] = {"base", "no trace",
                                     "no trace, telemetry",
                                     "no trace, telemetry, fault",
                                     "no trace, telemetry, fault, lb"};

core::ExperimentParams
ablate(core::ExperimentParams p, Variant v)
{
    if (v >= NoTrace)
        p.trace.enabled = false;
    if (v >= NoTelemetry)
        p.telemetry.enabled = false;
    if (v >= NoFault)
        p.faultPlan.events.clear();
    if (v >= NoLb)
        p.cluster.backends = 0;
    return p;
}

/** Mean pending-event depth of @p p, read by the run's own read-only
 *  telemetry probe (enabling telemetry cannot perturb the run). */
Total
meanPendingDepth(core::ExperimentParams p)
{
    p.telemetry.enabled = true;
    const core::ExperimentResult r = core::runExperiment(p);
    const auto &series = r.telemetry;
    Total t;
    for (std::size_t i = 0; i < series.probes.size(); ++i) {
        if (series.probes[i] != "sim.event_queue_depth" ||
            series.values[i].empty())
            continue;
        for (double d : series.values[i])
            t.value += d;
        t.value /= static_cast<double>(series.values[i].size());
        t.found = true;
    }
    return t;
}

/** ns per Simulation::schedule + step at a steady pending depth: each
 *  fired event schedules one successor at a pseudo-random delay. */
double
eventKernelNs(std::size_t depth, double budgetS)
{
    sim::Simulation sim;
    std::uint64_t state = 0x5eed;
    struct Tick {
        sim::Simulation *s;
        std::uint64_t *x;
        void
        operator()() const
        {
            s->schedule(static_cast<SimDuration>(1 + splitmix64(*x) % 4096),
                        Tick{s, x});
        }
    };
    for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i)
        sim.schedule(static_cast<SimDuration>(1 + splitmix64(state) % 4096),
                     Tick{&sim, &state});
    for (int i = 0; i < 100000; ++i)
        sim.step();
    std::vector<double> samples;
    const auto start = Clock::now();
    while (samples.size() < 5 || secondsSince(start) < budgetS) {
        constexpr int kSteps = 200000;
        const auto t0 = Clock::now();
        for (int i = 0; i < kSteps; ++i)
            sim.step();
        samples.push_back(
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count() /
            kSteps);
    }
    return median(samples);
}

/** Run @p probe in a child process of the untraced `tmbench` built
 *  beside this binary: a fresh process without the allocation hook, so
 *  neither its peak RSS nor its timings carry this process's. Returns
 *  the child's `key value` lines; empty when the child failed. */
std::map<std::string, std::string>
probeChild(const Options &o, const std::string &probe,
           const std::string &workDir)
{
    char self[4096];
    const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
    if (n <= 0)
        return {};
    self[n] = '\0';
    const std::string sibling =
        (fs::path(self).parent_path() / "tmbench").string();
    const std::string cmd =
        "'" + sibling + "' --workload " + o.workload + " --seed " +
        std::to_string(o.seed) + " --seconds 1 --trace 0 --size " +
        (o.tiny ? "tiny" : "full") + " --data-dir '" + o.dataDir +
        "' --work-dir '" + workDir + "' --probe " + probe;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return {};
    std::map<std::string, std::string> out;
    char line[256];
    while (std::fgets(line, sizeof line, pipe) != nullptr) {
        char key[64], value[64];
        if (std::sscanf(line, "%63s %63s", key, value) == 2)
            out[key] = value;
    }
    if (pclose(pipe) != 0)
        return {};
    return out;
}

Total
probeValue(const std::map<std::string, std::string> &out,
           const std::string &key)
{
    const auto it = out.find(key);
    if (it == out.end())
        return {};
    return {std::strtod(it->second.c_str(), nullptr), true};
}

double
dirBytes(const std::string &dir)
{
    double bytes = 0.0;
    for (const auto &entry : fs::recursive_directory_iterator(dir))
        if (entry.is_regular_file())
            bytes += static_cast<double>(entry.file_size());
    return bytes;
}

template <typename Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        s.push_back(secondsSince(t0));
    }
    return median(s);
}

int
tracedPass(const Options &o, const std::string &work)
{
    Report rep;
    Checks checks;
    const auto start = Clock::now();
    const Workload w = makeWorkload(o);
    core::runExperiment(w.plan.front().params);

    // 1. The traced serial pass: the study's steps one public call at
    //    a time, each timed, each run's snapshot read by totals.
    const std::vector<double> taus = sortedTaus(w.fit.quantiles);
    core::RunRecordOptions recordOpts;
    recordOpts.quantiles = taus;
    Tally tally;
    ShardAttribution shards;
    double storeS = 0.0, provenanceS = 0.0;
    std::map<double, std::vector<double>> responses;
    std::vector<std::vector<double>> levels;
    const auto tracedStart = Clock::now();
    const auto writer = openArchive(w, work + "/traced");
    for (std::size_t i = 0; i < w.plan.size(); ++i) {
        const drive::StudyRun &run = w.plan[i];
        const std::uint64_t allocs0 = util::allocCount();
        const auto t0 = Clock::now();
        const core::ExperimentResult r = core::runExperiment(run.params);
        const auto t1 = Clock::now();
        tally.allocs += static_cast<double>(util::allocCount() - allocs0);
        tally.add(r, std::chrono::duration<double, std::nano>(t1 - t0).count());

        const auto s0 = Clock::now();
        store::RunRecord rec =
            core::toRunRecord(run.params, r, run.levels, recordOpts);
        storeS += secondsSince(s0);
        if (!r.spans.empty()) {
            const auto p0 = Clock::now();
            const analysis::ProvenanceReport report =
                analysis::tailProvenance(r.spans, kProvenanceTaus);
            provenanceS += secondsSince(p0);
            shards.add(report);
            if (w.provenance)
                for (const auto &qp : report.quantiles)
                    for (const auto &seg : qp.segments)
                        rec.provenance.push_back(
                            {qp.tau, static_cast<std::uint64_t>(seg.kind),
                             seg.meanUs, seg.share});
        }
        const auto s1 = Clock::now();
        writer->writeRun(i, rec);
        storeS += secondsSince(s1);
        levels.push_back(run.levels);
        for (std::size_t t = 0; t < rec.quantileTaus.size(); ++t)
            responses[rec.quantileTaus[t]].push_back(rec.quantileUs[t]);
    }
    const regress::FactorialDesign design(w.factors);
    const auto models =
        analysis::fitFactorialModels(design, levels, responses, w.fit);
    writer->finish();
    const store::StudyReader reader(writer->directory());
    StudyResult fromStore;
    fromStore.refit = analysis::refitFromStore(reader, w.fit);
    if (w.provenance)
        fromStore.ranks = analysis::provenanceRankFromStore(reader);
    const double tracedS = secondsSince(tracedStart);
    rep.count(tally);

    const double fitS = medianSeconds(3, [&] {
        analysis::fitFactorialModels(design, levels, responses, w.fit);
    });
    const double refitS = medianSeconds(
        3, [&] { analysis::refitFromStore(reader, w.fit); });
    const double rankS = medianSeconds(
        3, [&] { analysis::provenanceRankFromStore(reader); });
    checks.expect(refitMatches(o, fromStore, models), "refit",
                  kRefitDetail);
    const double storeBytes = dirBytes(writer->directory());

    // 2. The untraced reference, in a child process without the
    //    allocation hook: serial StudyDriver studies on the same plan
    //    and archive setting, the plan's runs one at a time, and the
    //    same runs fanned out as StudyDriver fans them.
    const auto reference = probeChild(o, "reference", work + "/reference");
    const Total referenceS = probeValue(reference, "study_s");
    const Total serialRunsS = probeValue(reference, "serial_runs_s");
    const Total fanS = probeValue(reference, "fan_out_s");
    if (!reference.empty())
        rep.attempted += 5 * w.plan.size();

    // 3. StudyDriver at N threads, and serially in the child, must
    //    reproduce the traced pass.
    StudyResult parallel =
        runStudy(w, work + "/parallel", poolThreads(), w.refitEvery);
    rep.attempted += parallel.outcome.runs;
    if (o.perturb == "determinism" && !parallel.outcome.responses.empty())
        parallel.outcome.responses.begin()->second.front() = std::nextafter(
            parallel.outcome.responses.begin()->second.front(), 1e300);
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(
                      resultDigest(responses, models)));
    const auto serialDigest = reference.find("digest");
    checks.expect(
        sameResponses(parallel.outcome.responses, responses) &&
            sameModels(parallel.outcome.models, models) &&
            serialDigest != reference.end() &&
            serialDigest->second == digest,
        "determinism",
        "StudyDriver at " + std::to_string(poolThreads()) +
            " threads and serially == serial traced pass, bit for bit");
    checkAnswer(o, w, responses, levels, models, fromStore.ranks, shards,
                checks);
    std::printf("result_digest %s %s\n", w.name.c_str(), digest);

    // 4. Paired ablations on evenly spaced plan entries, variants
    //    interleaved so drift hits every variant alike.
    const std::size_t entries = std::min<std::size_t>(w.plan.size(),
                                                      o.tiny ? 2 : 8);
    double variantNs[kVariants] = {}, variantReq[kVariants] = {},
           variantEvents[kVariants] = {};
    bool invariant = true;
    std::size_t ablationRuns = 0;
    const auto ablationStart = Clock::now();
    const double ablationBudget = std::max(
        0.0, 0.9 * o.seconds - secondsSince(start));
    for (std::size_t pass = 0;
         pass == 0 || secondsSince(ablationStart) < ablationBudget; ++pass) {
        for (std::size_t e = 0; e < entries; ++e) {
            const auto &params = w.plan[e * w.plan.size() / entries].params;
            std::vector<double> resp[kVariants];
            for (std::size_t k = 0; k < kVariants; ++k) {
                const auto v = static_cast<Variant>((k + e + pass) % kVariants);
                const auto t0 = Clock::now();
                const core::ExperimentResult r =
                    core::runExperiment(ablate(params, v));
                variantNs[v] +=
                    std::chrono::duration<double, std::nano>(Clock::now() - t0)
                        .count();
                Total received, events;
                addCounters(received, r.metrics, "client", ".received");
                addCounters(events, r.metrics, "sim.events_executed", "");
                variantReq[v] += received.value;
                variantEvents[v] += events.value;
                ++ablationRuns;
                if (v == Base || v == NoTrace || v == NoTelemetry)
                    resp[v] = responsesOf(r, taus);
            }
            if (o.perturb == "trace_invariance")
                resp[NoTrace].front() =
                    std::nextafter(resp[NoTrace].front(), 1e300);
            for (Variant v : {NoTrace, NoTelemetry})
                invariant = invariant &&
                            std::equal(resp[v].begin(), resp[v].end(),
                                       resp[Base].begin(), resp[Base].end(),
                                       sameBits);
        }
    }
    rep.attempted += ablationRuns;
    checks.expect(invariant, "trace_invariance",
                  "responses identical with tracing and telemetry off");
    double nsPer[kVariants], eventsPer[kVariants];
    for (int v = 0; v < kVariants; ++v) {
        nsPer[v] = variantReq[v] > 0 ? variantNs[v] / variantReq[v] : 0.0;
        eventsPer[v] =
            variantReq[v] > 0 ? variantEvents[v] / variantReq[v] : 0.0;
    }

    // 5. Event kernel at the workload's mean pending depth.
    const Total depth = meanPendingDepth(w.plan.front().params);
    const double eventNs = eventKernelNs(
        depth.found ? static_cast<std::size_t>(depth.value + 0.5) : 64,
        o.tiny ? 0.1 : 0.5);

    // 6. Peak RSS with tracing on and off, each in its own process.
    const Total rssOn =
        probeValue(probeChild(o, "rss_on", work + "/rss"), "vmhwm_kb");
    const Total rssOff =
        probeValue(probeChild(o, "rss_off", work + "/rss"), "vmhwm_kb");

    // 7. The input mix: the request stream the clients draw.
    core::WorkloadGenerator gen(w.base.workload, Rng(o.seed));
    double sets = 0.0, setBytes = 0.0;
    constexpr int kDraws = 200000;
    for (int i = 0; i < kDraws; ++i) {
        server::Request req;
        gen.fill(req);
        if (req.op == server::OpType::Set) {
            sets += 1.0;
            setBytes += req.valueBytes;
        }
    }

    // ---- the ledger
    const double req = tally.get("received");
    const double runs = static_cast<double>(tally.runs);
    const double nsPerReq = nsPer[Base];
    bool hasLb = false, hasFault = false, hasObs = false;
    for (const auto &run : w.plan) {
        hasLb = hasLb || run.params.cluster.backends > 0;
        hasFault = hasFault || !run.params.faultPlan.empty();
        hasObs = hasObs || run.params.trace.enabled ||
                 run.params.telemetry.enabled;
    }
    const auto perReq = [&](const char *name, const char *id,
                            const char *unit, bool layerInPlan,
                            double scale = 1.0) {
        if (!layerInPlan)
            rep.add(name, 0.0, unit, "layer not in this plan");
        else
            rep.add(name, tally.get(id) * scale / req, unit, "",
                    tally.has(id));
    };
    const double eventsPerReq = tally.get("events") / req;
    const double traceNs = nsPer[Base] - nsPer[NoTrace];
    const double telemetryNs = nsPer[NoTrace] - nsPer[NoTelemetry];
    const double faultNs = nsPer[NoTelemetry] - nsPer[NoFault];
    const double lbNs = nsPer[NoFault] - nsPer[NoLb];
    // The bare run's events: those the ablated layers schedule are
    // already inside their deltas.
    const double simNs = eventsPer[NoLb] * eventNs;

    std::printf("[%s] per-layer ledger (traced pass: %zu runs serial; "
                "ablations: %zu runs on %zu entries)\n",
                w.name.c_str(), tally.runs, ablationRuns, entries);
    std::printf("  %-34s = %16.6f %-10s %s\n", "ns_per_req (ablation base)",
                nsPerReq, "ns/req", "reference for shares and residual");
    for (int v = 1; v < kVariants; ++v)
        std::printf("  ns_per_req (%s) = %.6f ns/req, %.3f events/req\n",
                    kVariantNames[v], nsPer[v], eventsPer[v]);
    std::printf("  traced pass %.6f s, untraced reference study %.6f s\n",
                tracedS, referenceS.value);
    std::printf("  %-34s = %16.0f %-10s\n", "sim.events_executed (total)",
                tally.get("events"), "count");
    std::printf("  %-34s = %16.0f %-10s\n", "sim.events_cancelled (total)",
                tally.get("cancels"), "count");
    std::printf("  %-34s = %16.3f %-10s %s\n", "sim.pending_depth",
                depth.value, "events",
                depth.found ? "mean of the telemetry probe" : "absent; kernel at 64");

    perReq("sim.events_per_req", "events", "count/req", true);
    perReq("sim.cancels_per_req", "cancels", "count/req", true);
    rep.add("sim.event_ns", eventNs, "ns", "schedule+step kernel");
    rep.add("sim.share", eventsPerReq * eventNs / nsPerReq, "ratio",
            "events_per_req x event_ns / ns_per_req", tally.has("events"));
    rep.add("core.attempts_per_req",
            (tally.get("issued") + tally.get("retries") +
             tally.get("hedges")) / req,
            "count/req", "", tally.has("issued"));
    rep.add("core.allocs_per_req", tally.allocs / req, "count/req",
            "operator new calls inside runExperiment",
            util::allocCountingActive());
    rep.add("core.send_slip_p99_us", tally.slipP99.value / runs, "us",
            "generator lateness, sim time", tally.slipP99.found);
    perReq("net.deliveries_per_req", "net_packets", "count/req", true);
    perReq("net.bytes_per_req", "net_bytes", "B/req", true);
    perReq("net.drops_per_req", "net_drops", "count/req", true);
    rep.add("hw.freq_transitions_per_run", tally.freqTransitions / runs,
            "count/run");
    rep.add("hw.server_util", tally.serverUtil / runs, "ratio");
    rep.add("server.hit_ratio",
            tally.get("hits") / (tally.get("hits") + tally.get("misses")),
            "ratio", "front server", tally.has("hits"));
    rep.add("server.sets_per_req", sets / kDraws, "count/req",
            "input mix: drawn request stream");
    rep.add("server.set_bytes_per_req", setBytes / kDraws, "B/req",
            "input mix: drawn request stream");
    perReq("lb.dispatch_per_req", "lb_dispatched", "count/req", hasLb);
    perReq("lb.failovers_per_req", "lb_failovers", "count/req", hasLb);
    perReq("lb.queued_per_req", "lb_queued", "count/req", hasLb);
    rep.add("lb.ns_per_req", lbNs, "ns/req",
            hasLb ? "ablation: backends = 0, after the faults"
                  : "identity ablation: noise floor");
    if (hasFault)
        rep.add("fault.windows_per_run", tally.get("fault_windows") / runs,
                "count/run", "", tally.has("fault_windows"));
    else
        rep.add("fault.windows_per_run", 0.0, "count/run",
                "layer not in this plan");
    perReq("fault.stalled_per_req", "fault_stalled", "count/req", hasFault);
    rep.add("fault.ns_per_req", faultNs, "ns/req",
            hasFault ? "ablation: empty faultPlan, after obs"
                     : "identity ablation: noise floor");
    rep.add("obs.trace_ns_per_req", traceNs, "ns/req",
            hasObs ? "ablation: tracing off" : "identity ablation: noise floor");
    rep.add("obs.telemetry_ns_per_req", telemetryNs, "ns/req",
            hasObs ? "ablation: telemetry off, after tracing"
                   : "identity ablation: noise floor");
    rep.add("obs.spans_per_run", tally.spans / runs, "count/run");
    rep.add("obs.trace_rss_mb", (rssOn.value - rssOff.value) / 1024.0, "MB",
            "child-process VmHWM, tracing on - off",
            rssOn.found && rssOff.found);
    rep.add("regress.fit_s", fitS, "s", "fitFactorialModels, median of 3");
    rep.add("analysis.refit_s", refitS, "s",
            w.archive ? "refitFromStore, median of 3"
                      : "refitFromStore on the traced archive");
    rep.add("analysis.provenance_ms_per_run",
            (provenanceS + rankS) * 1e3 / runs, "ms",
            "tailProvenance + provenanceRankFromStore");
    rep.add("store.write_ms_per_run", storeS * 1e3 / runs, "ms",
            "toRunRecord + writeRun");
    rep.add("store.bytes_per_run", storeBytes / runs, "B",
            "archive bytes / runs");
    rep.add("drive.refits_overlapped", parallel.outcome.refitsOverlapped,
            "count");
    rep.add("exec.parallel_eff",
            serialRunsS.value / (fanS.value * poolThreads()), "ratio",
            "sum of serial run walls / (parallelFor wall x " +
                std::to_string(poolThreads()) + " threads), untraced child",
            serialRunsS.found && fanS.found);
    rep.add("core.unattributed_ns_per_req",
            nsPerReq - (simNs + lbNs + faultNs + traceNs + telemetryNs),
            "ns/req",
            "bare run's ns_per_req minus its events x sim.event_ns");
    rep.add("bench.trace_overhead_pct",
            (tracedS / referenceS.value - 1.0) * 100.0, "%",
            "traced pass vs serial StudyDriver in the untraced child, "
            "same plan and archive",
            referenceS.found);

    std::vector<std::string> names;
    for (const Metric &m : rep.metrics)
        names.push_back(m.name);
    printResult(rep, names, checks.failed.empty());
    return checks.failed.empty() ? 0 : 1;
}

/** The traced pass's child: peak RSS of plan entry 0 with tracing on
 *  or off, or the untraced reference timings and digest. */
int
runProbe(const Options &o)
{
    const Workload w = makeWorkload(o);
    if (o.probe == "rss_on" || o.probe == "rss_off") {
        core::ExperimentParams p = w.plan.front().params;
        if (o.probe == "rss_off")
            p.trace.enabled = false;
        core::runExperiment(p);
        std::printf("vmhwm_kb %.0f\n", vmHwmKb());
        return 0;
    }
    if (o.probe != "reference")
        usage("unknown probe " + o.probe);
    core::runExperiment(w.plan.front().params);
    // The median of three studies; every one must give the same digest.
    std::vector<double> studyS;
    std::string digest;
    for (int i = 0; i < 3; ++i) {
        fs::remove_all(o.workDir);
        const StudyResult serial = runStudy(w, o.workDir + "/serial", 1, 0);
        studyS.push_back(serial.seconds);
        char hex[32];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(resultDigest(
                          serial.outcome.responses, serial.outcome.models)));
        digest = i == 0 || digest == hex ? hex : "differs";
    }
    fs::remove_all(o.workDir);

    double runsS = 0.0;
    for (const drive::StudyRun &run : w.plan) {
        const auto t0 = Clock::now();
        core::runExperiment(run.params);
        runsS += secondsSince(t0);
    }
    const auto fanStart = Clock::now();
    exec::parallelFor(exec::Parallelism{poolThreads()}, w.plan.size(),
                      [&](std::size_t i) {
                          core::runExperiment(w.plan[i].params);
                      });
    const double fanS = secondsSince(fanStart);

    std::printf("study_s %.9g\nserial_runs_s %.9g\nfan_out_s %.9g\n"
                "digest %s\n",
                median(studyS), runsS, fanS, digest.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
#ifdef TM_BENCH_TRACED
    util::forceLinkAllocHook();
#endif
    const Options o = parseArgs(argc, argv);
    try {
        if (!o.probe.empty())
            return runProbe(o);
        printMetadata(o);
        // One fixed directory per workload, kept between runs: where a
        // fresh directory lands on disk changes what opening an archive
        // costs, and setup_s should not measure that.
        const std::string work = o.workDir + "/" + o.workload;
        fs::create_directories(work);
        const auto clear = [&work] {
            for (const auto &entry : fs::directory_iterator(work))
                fs::remove_all(entry.path());
        };
        clear();
        int rc = 1;
        try {
            rc = o.trace ? tracedPass(o, work) : untracedPass(o, work);
        } catch (...) {
            clear();
            throw;
        }
        clear();
        if (rc != 0)
            std::fprintf(stderr, "tmbench: a check failed\n");
        return rc;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tmbench: %s\n", e.what());
        return 1;
    }
}
