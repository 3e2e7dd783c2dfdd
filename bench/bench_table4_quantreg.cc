/**
 * @file
 * Regenerates Table IV: quantile-regression coefficients (estimate,
 * bootstrap standard error, p-value) for Memcached at high
 * utilization, at the 50th/95th/99th percentiles, for all 16 terms of
 * the 2^4 factorial model.
 *
 * Expectation (paper Table IV): numa raises the tail (+56 us at P99
 * in the paper), turbo lowers it (-29 us), dvfs alone is
 * insignificant at P99, interactions are often as large as main
 * effects, and uncertainty grows toward the tail.
 */

#include "bench_common.h"

#include "analysis/report.h"

using namespace treadmill;

int
main()
{
    bench::banner("Table IV -- quantile regression for Memcached at"
                  " high utilization",
                  "Section V-B, Table IV");

    analysis::AttributionParams params =
        bench::defaultAttribution(bench::highLoad());
    params.quantiles = {0.5, 0.95, 0.99};
    // Fan the sweep across hardware threads (Parallelism{1} restores
    // the serial path; either way the observations are bit-exact).
    params.parallelism = exec::Parallelism{};
    params.progress = bench::sweepProgress();

    std::printf("Collecting %u experiments (16 configs x %u reps,"
                " %u threads)...\n\n",
                16u * params.repsPerConfig, params.repsPerConfig,
                params.parallelism.resolve());
    const auto result = drive::runAttribution(params);

    std::printf("%s\n", analysis::renderCoefficientTable(result).c_str());

    std::printf("Reading the table (paper example): the estimated P95"
                " for numa+turbo\nhigh = intercept + numa + turbo +"
                " numa:turbo = %.0f us.\n",
                [&] {
                    hw::HardwareConfig cfg;
                    cfg.numa = hw::NumaPolicy::Interleave;
                    cfg.turbo = hw::TurboMode::On;
                    return result.predict(0.95, cfg);
                }());
    std::printf("\nExpected shape vs paper Table IV: numa > 0 at the"
                " tail, turbo < 0,\ndvfs alone insignificant at P99,"
                " standard errors growing with the\nquantile.\n");
    return 0;
}
