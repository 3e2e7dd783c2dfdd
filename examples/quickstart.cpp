/**
 * @file
 * Quickstart: measure a Memcached server's tail latency with the
 * Treadmill procedure.
 *
 * This is the 60-second tour of the public API:
 *   1. describe the workload,
 *   2. pick a hardware configuration and a utilization target,
 *   3. run one experiment (8 Treadmill instances, open loop,
 *      warm-up / calibration / measurement phases),
 *   4. read per-instance quantiles, the correctly aggregated metric,
 *      and the tcpdump-equivalent ground truth,
 *   5. export a JSON summary, including the server / network / client
 *      latency split of every traced request.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "analysis/export.h"
#include "core/experiment.h"
#include "stats/summary.h"

using namespace treadmill;

int
main()
{
    // 1. Workload: 95% GET / 5% SET over 100k keys, Zipfian
    //    popularity, ~100-byte values. (This is the default; shown
    //    explicitly for the tour.)
    core::WorkloadConfig workload;
    workload.getFraction = 0.95;
    workload.keySpace = 100000;
    workload.zipfSkew = 0.99;
    workload.valueBytesMean = 100.0;

    // 2. Experiment: the all-low hardware configuration (same-node
    //    NUMA, turbo off, ondemand governor, same-node NIC affinity)
    //    at 50% server utilization.
    core::ExperimentParams params;
    params.workload = workload;
    params.targetUtilization = 0.50;
    params.collector.warmUpSamples = 500;
    params.collector.calibrationSamples = 500;
    params.collector.measurementSamples = 10000;
    params.seed = 2026;
    // Trace every request: the JSON summary's server / network /
    // client components group each span's critical path. Tracing is
    // Rng-free, so it moves no measured nanosecond.
    params.trace.enabled = true;

    std::printf("Running one Treadmill experiment: %u instances, "
                "open-loop, %.0f%% utilization...\n",
                params.tester.clientMachines,
                params.targetUtilization * 100.0);

    // 3. Run.
    const core::ExperimentResult result = core::runExperiment(params);

    // 4. Read the results.
    std::printf("\nachieved %.0f RPS (target %.0f), server utilization"
                " %.2f\n\n",
                result.achievedRps, result.targetRps,
                result.serverUtilization);

    std::printf("per-instance quantiles (us):\n");
    std::printf("  instance      P50      P95      P99\n");
    for (std::size_t i = 0; i < result.instances.size(); ++i) {
        const auto &q = result.instances[i].quantiles;
        std::printf("  %8zu  %7.1f  %7.1f  %7.1f\n", i, q.at(0.5),
                    q.at(0.95), q.at(0.99));
    }

    std::printf("\naggregated (extract-per-instance, then average --"
                " the correct way):\n");
    for (double q : {0.5, 0.95, 0.99}) {
        std::printf("  P%-4g = %7.1f us\n", q * 100.0,
                    result.aggregatedQuantile(
                        q, core::AggregationKind::PerInstance));
    }

    std::printf("\nground truth at the server NIC (tcpdump"
                " equivalent):\n");
    for (double q : {0.5, 0.95, 0.99}) {
        std::printf("  P%-4g = %7.1f us\n", q * 100.0,
                    stats::quantile(result.groundTruthUs, q));
    }
    std::printf("\nThe constant gap between the two views is the"
                " client kernel+CPU time\n(~32 us), exactly the offset"
                " the paper observes between Treadmill and\ntcpdump."
                "\n");

    // 5. Results are exportable as JSON for dashboards / notebooks.
    std::printf("\nmachine-readable summary"
                " (analysis::toJson(result)):\n%s\n",
                analysis::toJson(result).dumpPretty().c_str());
    return 0;
}
