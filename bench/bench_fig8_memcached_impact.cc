/**
 * @file
 * Regenerates Figure 8: the average latency impact of switching each
 * individual factor to its high level for Memcached, with the other
 * factors equally likely low or high, at low and high load.
 *
 * Expectation (paper Fig 8 / Findings 6-7): interleaved NUMA hurts
 * most at high load; the DVFS governor matters most at low load;
 * turbo helps throughout; contributions shift with load.
 */

#include "bench_common.h"

#include "analysis/report.h"

using namespace treadmill;

namespace {

analysis::AttributionResult
sweep(double utilization)
{
    analysis::AttributionParams params =
        bench::defaultAttribution(utilization);
    params.quantiles = {0.5, 0.9, 0.95, 0.99};
    params.repsPerConfig = bench::paperScale() ? 30 : 6;
    params.bootstrapReplicates = 10;
    return drive::runAttribution(params);
}

} // namespace

int
main()
{
    bench::banner("Figure 8 -- average per-factor impact for Memcached",
                  "Section V-B, Figure 8");

    const auto low = sweep(bench::lowLoad());
    const auto high = sweep(bench::highLoad());

    std::printf("Average impact of turning each factor to high level"
                " (us; negative =\nlatency reduction), other factors"
                " random:\n\n");
    std::printf("  percentile  load   numa    turbo   dvfs    nic\n");
    const analysis::AttributionResult *sweeps[] = {&low, &high};
    const char *labels[] = {"low ", "high"};
    for (double tau : {0.5, 0.9, 0.95, 0.99}) {
        for (int s = 0; s < 2; ++s) {
            std::printf("  P%-9g  %s ", tau * 100.0, labels[s]);
            for (std::size_t f = 0; f < 4; ++f)
                std::printf("  %+6.1f",
                            sweeps[s]->averageFactorImpact(tau, f));
            std::printf("\n");
        }
    }

    std::printf("\nExpectation (paper Fig 8): numa's penalty is largest"
                " at high load\n(Finding 6); dvfs=performance helps"
                " most at low load where ondemand\npays transition"
                " stalls (Finding 3); turbo is negative (helpful)\n"
                "throughout; per-factor contributions depend on load"
                " (Finding 7).\n");
    return 0;
}
