/**
 * @file
 * Regenerates Figure 4: performance hysteresis -- the P99 estimate of
 * several identically configured runs converges within each run, but
 * to run-specific values.
 *
 * Expectation: each run's trajectory flattens (the estimator
 * converges), yet the converged values differ across runs by far more
 * than the within-run confidence would suggest. Only restarting and
 * aggregating across runs (the repeated procedure) gives a stable
 * answer.
 */

#include "bench_common.h"

#include "drive/repeat.h"
#include "stats/summary.h"

using namespace treadmill;

int
main()
{
    bench::banner("Figure 4 -- hysteresis: P99 vs sample count across"
                  " runs",
                  "Section II-D, Figure 4");

    core::ExperimentParams base = bench::defaultExperiment(0.70);
    base.collector.measurementSamples =
        bench::paperScale() ? 40000 : 12000;
    base.collector.trajectoryEvery =
        base.collector.measurementSamples / 12;
    base.collector.trajectoryQuantile = 0.99;
    base.requestsPerSecond = core::deriveRequestRate(base);

    drive::Repetitions runs;
    runs.paramsOf = [&base](std::size_t run) {
        core::ExperimentParams params = base;
        params.seed = 1000 + run * 131;
        return params;
    };
    runs.tau = 0.99;
    runs.maxRuns = 4;
    const std::vector<double> converged = drive::repeatRuns(
        runs, [](std::size_t run, const core::ExperimentParams &,
                 const core::ExperimentResult &result) {
            std::printf("Run #%zu (instance 0 trajectory)\n", run);
            std::printf("  samples   P99 estimate (us)\n");
            for (const auto &[n, estimate] :
                 result.instances[0].trajectory) {
                std::printf("  %7llu   %10.1f\n",
                            static_cast<unsigned long long>(n), estimate);
            }
            std::printf("  converged aggregated P99: %.1f us\n\n",
                        result.aggregatedQuantile(
                            0.99, core::AggregationKind::PerInstance));
        });

    const double avg = stats::mean(converged);
    std::printf("Average of converged values: %.1f us\n", avg);
    for (std::size_t i = 0; i < converged.size(); ++i) {
        std::printf("  run %zu deviation from average: %+.1f%%\n", i,
                    100.0 * (converged[i] - avg) / avg);
    }
    std::printf("\nExpectation (paper Fig 4): trajectories converge"
                " within a run, but\nconverged values differ across"
                " runs (the paper saw 15-67%% deviations;\nthe"
                " simulated placement state reproduces the phenomenon"
                " at a milder\nmagnitude). More samples cannot close"
                " the gap -- only repeated runs can.\n");
    return 0;
}
