/**
 * @file
 * Regenerates Figure 7: estimated Memcached latency of all 16 factor
 * permutations at P50/P90/P95/P99 under low and high utilization.
 *
 * Expectation: spread between configurations widens from low to high
 * load and from the median to the tail (Findings 1-2); the ordering
 * of configurations changes between loads (Finding 7).
 */

#include "bench_common.h"

#include "analysis/report.h"

using namespace treadmill;

namespace {

void
sweep(const char *label, double utilization)
{
    analysis::AttributionParams params =
        bench::defaultAttribution(utilization);
    params.quantiles = {0.5, 0.9, 0.95, 0.99};
    params.repsPerConfig = bench::paperScale() ? 30 : 6;
    params.bootstrapReplicates = 10; // estimates only; no Table IV SEs
    const auto result = drive::runAttribution(params);

    std::printf("%s\n", label);
    std::printf("  config (numa,turbo,dvfs,nic)    P50     P90     "
                "P95     P99  (us)\n");
    double minP99 = 1e300;
    double maxP99 = 0.0;
    for (const auto &cfg : hw::allConfigs()) {
        std::printf("  %-28s", cfg.label().c_str());
        for (double tau : params.quantiles)
            std::printf("  %6.1f", result.predict(tau, cfg));
        std::printf("\n");
        minP99 = std::min(minP99, result.predict(0.99, cfg));
        maxP99 = std::max(maxP99, result.predict(0.99, cfg));
    }
    std::printf("  P99 spread across configs: %.1f us (%.2fx)\n\n",
                maxP99 - minP99, maxP99 / minP99);
}

} // namespace

int
main()
{
    bench::banner("Figure 7 -- estimated Memcached latency per"
                  " configuration",
                  "Section V-B, Figure 7");

    sweep("Low Load", bench::lowLoad());
    sweep("High Load", bench::highLoad());

    std::printf("Expectation (paper Fig 7): higher load and higher"
                " quantiles magnify\nthe configuration spread; no"
                " single configuration is best everywhere.\n");
    return 0;
}
