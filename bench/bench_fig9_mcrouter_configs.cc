/**
 * @file
 * Regenerates Figure 9: estimated mcrouter latency of all 16 factor
 * permutations at P50/P90/P95/P99 under low and high utilization.
 *
 * Expectation: mcrouter's absolute latencies and configuration spread
 * are smaller than Memcached's (its work is CPU-bound request
 * deserialization plus an asynchronous backend wait), and Turbo Boost
 * is its most helpful factor (Finding 8).
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
    params.base.kind = core::WorkloadKind::Mcrouter;
    params.quantiles = {0.5, 0.9, 0.95, 0.99};
    params.repsPerConfig = bench::paperScale() ? 30 : 6;
    params.bootstrapReplicates = 10;
    const auto result = drive::runAttribution(params);

    std::printf("%s\n", label);
    std::printf("  config (numa,turbo,dvfs,nic)    P50     P90     "
                "P95     P99  (us)\n");
    for (const auto &cfg : hw::allConfigs()) {
        std::printf("  %-28s", cfg.label().c_str());
        for (double tau : params.quantiles)
            std::printf("  %6.1f", result.predict(tau, cfg));
        std::printf("\n");
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    bench::banner("Figure 9 -- estimated mcrouter latency per"
                  " configuration",
                  "Section V-C, Figure 9");

    sweep("Low Load", bench::lowLoad());
    sweep("High Load", bench::highLoad());

    std::printf("Expectation (paper Fig 9): same qualitative structure"
                " as Fig 7 but a\nsmaller configuration spread, since"
                " the backend round trip dilutes the\nrouter-side"
                " hardware effects.\n");
    return 0;
}
