/**
 * @file
 * Regenerates Figure 11: pseudo-R^2 of the quantile-regression models
 * across load levels, percentiles, and workloads, plus the ANOVA/OLS
 * R^2 the paper argues against.
 *
 * Expectation: the factorial model explains the large majority of the
 * per-experiment quantile variance (the paper reports >= 0.90 at
 * every point; the simulated substrate lands slightly lower at the
 * median, where residual hysteresis noise is proportionally larger).
 */

#include "bench_common.h"

#include "regress/factorial.h"

using namespace treadmill;

namespace {

void
sweep(const char *label, core::WorkloadKind kind, double utilization)
{
    analysis::AttributionParams params =
        bench::defaultAttribution(utilization);
    params.base.kind = kind;
    params.quantiles = {0.5, 0.9, 0.95, 0.99};
    params.repsPerConfig = bench::paperScale() ? 30 : 5;
    params.bootstrapReplicates = 10;
    const auto result = drive::runAttribution(params);

    std::printf("%s\n", label);
    std::printf("  percentile   pseudo-R2 (quantile regression)\n");
    for (const auto &model : result.models)
        std::printf("  P%-10g  %.3f\n", model.tau * 100.0,
                    model.pseudoR2);

    // ANOVA/OLS baseline on the mean response for contrast.
    std::vector<std::vector<double>> levels;
    regress::Vec y;
    for (const auto &obs : result.observations) {
        const auto l = obs.config.levels();
        levels.emplace_back(l.begin(), l.end());
        y.push_back(obs.quantileUs.at(0.99));
    }
    const auto ols = regress::fitFactorialOls(result.design, levels, y);
    std::printf("  (OLS/ANOVA R2 on the P99 response: %.3f -- models"
                " the mean of the\n   quantile, not the quantile"
                " itself)\n\n",
                ols.rSquared);
}

} // namespace

int
main()
{
    bench::banner("Figure 11 -- goodness-of-fit (pseudo-R2) across"
                  " loads and percentiles",
                  "Section V-D, Figure 11");

    sweep("Memcached, low load", core::WorkloadKind::Memcached,
          bench::lowLoad());
    sweep("Memcached, high load", core::WorkloadKind::Memcached,
          bench::highLoad());
    sweep("mcrouter, low load", core::WorkloadKind::Mcrouter,
          bench::lowLoad());
    sweep("mcrouter, high load", core::WorkloadKind::Mcrouter,
          bench::highLoad());

    std::printf("Expectation (paper Fig 11): consistently high"
                " pseudo-R2 (paper >= 0.90;\nthis reproduction"
                " typically 0.75-0.95, rising toward the tail where"
                "\nfactor effects dominate hysteresis noise).\n");
    return 0;
}
