/**
 * @file
 * Demonstrates the four load-testing pitfalls the paper surveys, each
 * as a small self-contained experiment against the same simulated
 * Memcached server:
 *
 *   1. closed-loop inter-arrival generation underestimates the tail,
 *   2. static histograms clamp it,
 *   3. a single client machine inflates it (client-side queueing),
 *   4. hysteresis: one long run is not enough; repeat and aggregate.
 *
 * Run: ./build/examples/pitfalls_demo
 */

#include <algorithm>
#include <cstdio>

#include "core/experiment.h"
#include "core/tester_spec.h"
#include "drive/repeat.h"
#include "stats/convergence.h"
#include "stats/summary.h"

using namespace treadmill;

namespace {

core::ExperimentParams
baseParams()
{
    core::ExperimentParams params;
    params.targetUtilization = 0.75;
    params.config.dvfs = hw::DvfsGovernor::Performance;
    params.collector.warmUpSamples = 300;
    params.collector.calibrationSamples = 300;
    params.collector.measurementSamples = 5000;
    params.seed = 7;
    return params;
}

void
pitfall1ClosedLoop()
{
    std::printf("--- Pitfall 1: closed-loop query inter-arrival"
                " generation ---\n");
    core::ExperimentParams open = baseParams();
    const auto openResult = core::runExperiment(open);

    core::ExperimentParams closed = baseParams();
    closed.tester = core::mutilateSpec();
    closed.tester.connectionsPerClient = 4;
    closed.requestsPerSecond = openResult.targetRps;
    const auto closedResult = core::runExperiment(closed);

    const double openP99 = openResult.aggregatedQuantile(
        0.99, core::AggregationKind::PerInstance);
    const double closedP99 = closedResult.aggregatedQuantile(
        0.99, core::AggregationKind::Holistic);
    std::printf("  open-loop P99:   %7.1f us\n", openP99);
    std::printf("  closed-loop P99: %7.1f us  (%.0f%% of open-loop --"
                " the cap on\n",
                closedP99, 100.0 * closedP99 / openP99);
    std::printf("  outstanding requests clips the queueing tail)\n\n");
}

void
pitfall2StaticHistogram()
{
    std::printf("--- Pitfall 2: static histogram binning ---\n");
    // Calibrated for a lightly loaded system...
    core::ExperimentParams params = baseParams();
    params.collector.histogram = core::HistogramKind::Static;
    params.collector.staticLo = 0.0;
    params.collector.staticHi = 150.0; // fits low-load latencies only
    const auto clamped = core::runExperiment(params);

    core::ExperimentParams adaptive = baseParams();
    const auto ok = core::runExperiment(adaptive);

    std::printf("  adaptive-histogram P99: %7.1f us\n",
                ok.aggregatedQuantile(
                    0.99, core::AggregationKind::PerInstance));
    std::printf("  static-histogram P99:   %7.1f us  (clamped at the"
                " 150 us bound)\n\n",
                clamped.aggregatedQuantile(
                    0.99, core::AggregationKind::PerInstance));
}

void
pitfall3SingleClient()
{
    std::printf("--- Pitfall 3: client-side queueing bias ---\n");
    core::ExperimentParams multi = baseParams();
    multi.clientSendCostUs = 2.0;
    multi.clientReceiveCostUs = 2.0;
    const auto multiResult = core::runExperiment(multi);

    core::ExperimentParams single = multi;
    single.tester = core::cloudSuiteSpec();
    single.tester.loop = core::ControlLoop::OpenLoop;
    const auto singleResult = core::runExperiment(single);

    std::printf("  8-client  P99: %8.1f us (worst client CPU at"
                " %.0f%%)\n",
                multiResult.aggregatedQuantile(
                    0.99, core::AggregationKind::PerInstance),
                100.0 * [&] {
                    double m = 0.0;
                    for (const auto &i : multiResult.instances)
                        m = std::max(m, i.cpuUtilization);
                    return m;
                }());
    std::printf("  1-client  P99: %8.1f us (client CPU at %.0f%% --"
                " measuring itself,\n",
                singleResult.aggregatedQuantile(
                    0.99, core::AggregationKind::PerInstance),
                100.0 * singleResult.instances[0].cpuUtilization);
    std::printf("  not the server)\n\n");
}

void
pitfall4Hysteresis()
{
    std::printf("--- Pitfall 4: performance hysteresis ---\n");
    core::ExperimentParams base = baseParams();
    base.config.dvfs = hw::DvfsGovernor::Ondemand;
    base.collector.measurementSamples = 4000;

    drive::Repetitions procedure;
    procedure.paramsOf = [&base](std::size_t k) {
        core::ExperimentParams params = base;
        // Fresh run seed => fresh placement: the hysteresis dimension.
        params.seed = base.seed + k * 7919 + 13;
        return params;
    };
    procedure.tau = 0.99;
    procedure.minRuns = 5;
    procedure.maxRuns = 15;
    procedure.stop = [](const std::vector<double> &kept) {
        return stats::meanConverged(kept, 0.02, 3);
    };
    const std::vector<double> runs = drive::repeatRuns(procedure);

    std::printf("  per-run converged P99 values (us):");
    for (double v : runs)
        std::printf(" %.0f", v);
    std::printf("\n  spread: %.0f..%.0f; single runs disagree, so the"
                " procedure repeats\n  until the mean converges:"
                " %.1f us after %zu runs (sd %.1f us)\n\n",
                *std::min_element(runs.begin(), runs.end()),
                *std::max_element(runs.begin(), runs.end()),
                stats::mean(runs), runs.size(), stats::stddev(runs));
}

} // namespace

int
main()
{
    std::printf("Treadmill pitfalls demo (paper Section II)\n\n");
    pitfall1ClosedLoop();
    pitfall2StaticHistogram();
    pitfall3SingleClient();
    pitfall4Hysteresis();
    std::printf("Treadmill's design avoids all four: precisely timed"
                " open loop, adaptive\nhistograms, many lightly loaded"
                " clients, and a repeated-experiment\nprocedure.\n");
    return 0;
}
