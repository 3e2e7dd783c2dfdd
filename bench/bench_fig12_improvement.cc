/**
 * @file
 * Regenerates Figure 12: tail latency before and after tuning the
 * hardware configuration as recommended by the attribution model.
 *
 * Protocol: run the experiment under randomly drawn configurations
 * ("before"), then under the model's best configuration for P99
 * ("after"), and compare both the expected P99 and its run-to-run
 * standard deviation. The paper reports 181 -> 103 us (-43%) and a
 * standard deviation of 78 -> 5 us (-93%).
 */

#include "bench_common.h"

#include "analysis/recommend.h"
#include "stats/summary.h"

using namespace treadmill;

int
main()
{
    bench::banner("Figure 12 -- tail latency before/after tuning",
                  "Section V-E, Figure 12");

    analysis::AttributionParams attrParams =
        bench::defaultAttribution(bench::highLoad());
    attrParams.quantiles = {0.5, 0.99};
    attrParams.repsPerConfig = bench::paperScale() ? 30 : 6;
    attrParams.bootstrapReplicates = 10;
    std::printf("Fitting the attribution model (%u experiments)...\n",
                16u * attrParams.repsPerConfig);
    const auto attribution = drive::runAttribution(attrParams);

    analysis::ImprovementParams params;
    params.base = attrParams.base;
    params.base.requestsPerSecond =
        core::deriveRequestRate(attrParams.base);
    params.tau = 0.99;
    params.runsPerArm = bench::paperScale() ? 100 : 30;
    params.seed = 404;

    std::printf("Running %u random-config runs vs %u tuned runs...\n\n",
                params.runsPerArm, params.runsPerArm);
    const auto result =
        analysis::evaluateImprovement(attribution, params);

    std::printf("Recommended configuration: %s\n\n",
                result.recommended.label().c_str());
    std::printf("                    before (random)   after (tuned)\n");
    std::printf("  P99 mean          %10.1f us     %10.1f us\n",
                result.before.mean, result.after.mean);
    std::printf("  P99 std dev       %10.1f us     %10.1f us\n",
                result.before.stddev, result.after.stddev);
    std::printf("\n  P99 latency reduction:     %5.1f%%  (paper: 43%%)\n",
                100.0 * result.latencyReduction());
    std::printf("  P99 variability reduction: %5.1f%%  (paper: 93%%)\n",
                100.0 * result.variabilityReduction());

    // Also report the median improvement for context (paper: 69->62).
    std::vector<double> beforeRuns = result.before.perRunQuantileUs;
    std::vector<double> afterRuns = result.after.perRunQuantileUs;
    std::printf("\n  before runs: min %.0f / median %.0f / max %.0f us\n",
                *std::min_element(beforeRuns.begin(), beforeRuns.end()),
                stats::median(beforeRuns),
                *std::max_element(beforeRuns.begin(), beforeRuns.end()));
    std::printf("  after runs:  min %.0f / median %.0f / max %.0f us\n",
                *std::min_element(afterRuns.begin(), afterRuns.end()),
                stats::median(afterRuns),
                *std::max_element(afterRuns.begin(), afterRuns.end()));
    return 0;
}
