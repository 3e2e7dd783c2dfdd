/**
 * @file
 * A complete tail-latency attribution study (paper Sections IV-V):
 * factorial sweep -> quantile regression -> Table IV-style report ->
 * configuration recommendation -> measured improvement.
 *
 * Run: ./build/examples/attribution_study
 * (Takes a couple of minutes; it runs 16 configs x 4 reps plus the
 * before/after arms.)
 */

#include <chrono>
#include <cstdio>

#include "analysis/provenance.h"
#include "analysis/recommend.h"
#include "analysis/report.h"
#include "analysis/screening.h"
#include "drive/study_driver.h"

using namespace treadmill;

int
main()
{
    std::printf("Tail-latency attribution study on simulated Memcached\n\n");

    // 1. Factorial sweep and fit: every permutation of
    //    {numa, turbo, dvfs, nic}, several repetitions each, in a
    //    randomized order, all at the same request rate, run through
    //    the StudyDriver. The runs are seed-isolated, so they fan out
    //    across hardware threads with bit-exact results
    //    (Parallelism{1} is the serial path).
    analysis::AttributionParams params;
    params.base.targetUtilization = 0.65;
    params.base.collector.warmUpSamples = 300;
    params.base.collector.calibrationSamples = 300;
    params.base.collector.measurementSamples = 5000;
    params.quantiles = {0.5, 0.95, 0.99};
    params.repsPerConfig = 4;
    params.bootstrapReplicates = 80;
    params.seed = 99;
    params.parallelism = exec::Parallelism{};
    params.progress = [](const exec::Progress &p) {
        if (p.completed % 8 != 0 && p.completed != p.total)
            return;
        std::printf("\r  %zu/%zu experiments  %.1f s wall  "
                    "%.1f sim-s/s   ",
                    p.completed, p.total, p.wallSeconds,
                    p.throughput());
        if (p.completed == p.total)
            std::printf("\n");
        std::fflush(stdout);
    };

    std::printf("Step 1: running %u experiments (16 configurations x"
                " %u reps, %u threads)...\n",
                16 * params.repsPerConfig, params.repsPerConfig,
                params.parallelism.resolve());
    const auto wallStart = std::chrono::steady_clock::now();
    const auto attribution = drive::runAttribution(params);
    const double parallelWall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wallStart)
            .count();
    std::printf("  sweep took %.1f s at %u threads\n", parallelWall,
                params.parallelism.resolve());

    // 1b. Screen candidate factors by null-hypothesis testing
    //     (paper S IV-B) before reading the full model.
    std::printf("\nStep 1b: factor screening (permutation tests on"
                " P99)\n");
    analysis::ScreeningParams screening;
    screening.tau = 0.99;
    screening.seed = params.seed;
    for (const auto &screen :
         analysis::screenFactors(attribution, screening)) {
        std::printf("  %-6s effect %+7.1f us   p=%.3f   %s\n",
                    screen.name.c_str(), screen.effectUs,
                    screen.pValue,
                    screen.significant ? "keep" : "(weak in isolation;"
                                                  " interactions may"
                                                  " still matter)");
    }

    // 2. The Table IV-style coefficient report.
    std::printf("\nStep 2: quantile-regression attribution\n\n%s\n",
                analysis::renderCoefficientTable(attribution).c_str());

    // 3. Average per-factor impacts (Fig 8 style).
    std::printf("Step 3: average per-factor P99 impact (us, negative"
                " = improvement)\n");
    for (std::size_t f = 0; f < 4; ++f) {
        std::printf("  %-6s %+8.1f\n", hw::factorNames()[f].c_str(),
                    attribution.averageFactorImpact(0.99, f));
    }

    // 4. Recommendation and ranking.
    const auto ranked = analysis::rankConfigurations(attribution, 0.99);
    std::printf("\nStep 4: configurations ranked by predicted P99\n");
    for (const auto &p : ranked)
        std::printf("  %7.1f us  %s\n", p.predictedUs,
                    p.config.label().c_str());

    // 5. Before/after evaluation (Fig 12 protocol, reduced scale).
    analysis::ImprovementParams improve;
    improve.base = params.base;
    improve.base.requestsPerSecond =
        core::deriveRequestRate(params.base);
    improve.tau = 0.99;
    improve.runsPerArm = 15;
    improve.seed = 1;
    std::printf("\nStep 5: measuring improvement (%u random-config vs"
                " %u tuned runs)...\n",
                improve.runsPerArm, improve.runsPerArm);
    const auto result =
        drive::evaluateImprovement(attribution, improve);
    std::printf("  recommended: %s\n",
                result.recommended.label().c_str());
    std::printf("  P99 before: %.1f +- %.1f us\n", result.before.mean,
                result.before.stddev);
    std::printf("  P99 after:  %.1f +- %.1f us\n", result.after.mean,
                result.after.stddev);
    std::printf("  latency reduction %.0f%%, variability reduction"
                " %.0f%%\n",
                100.0 * result.latencyReduction(),
                100.0 * result.variabilityReduction());

    // 6. Measured attribution: re-run the recommended configuration
    //    with request tracing on and decompose the traced spans'
    //    critical paths into per-component latencies -- the measured
    //    counterpart of the regression attribution in step 2.
    auto traced = improve.base;
    traced.config = result.recommended;
    traced.trace.enabled = true;
    traced.trace.sampleEvery = 4;
    std::printf("\nStep 6: measured decomposition of the recommended"
                " configuration (tracing on)\n\n");
    const auto tracedRun = core::runExperiment(traced);
    std::printf("%s\n",
                analysis::renderDecompositionTable(
                    analysis::decompose(tracedRun.spans,
                                        obs::Grouping::Row))
                    .c_str());
    return 0;
}
