/**
 * @file
 * End-to-end tail-latency attribution (paper S IV and S V).
 *
 * The pipeline: run repeated experiments over random permutations of
 * the 2^4 factorial configurations (at least `repsPerConfig` per
 * cell), take each experiment's per-instance aggregated quantile as
 * the response variable, fit quantile regression with all interaction
 * terms at each requested tau (exactly, in closed form:
 * regress/factorial.h), and report Table IV-style estimates with
 * within-cell bootstrap standard errors, p-values, and the pseudo-R^2
 * goodness-of-fit.
 *
 * This header holds the data model and the fit; the sweep runs in
 * drive::StudyDriver (drive::hardwarePlan, drive::runAttribution).
 */

#ifndef TREADMILL_ANALYSIS_ATTRIBUTION_H_
#define TREADMILL_ANALYSIS_ATTRIBUTION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "exec/parallel_for.h"
#include "exec/progress.h"
#include "hw/hardware_config.h"
#include "regress/design.h"
#include "regress/factorial.h"

namespace treadmill {
namespace analysis {

/** Controls for one hardware attribution study (drive::hardwarePlan
 *  builds its plan, drive::runAttribution runs and fits it). */
struct AttributionParams {
    /** Template experiment; its `config`, `seed` and
     *  `requestsPerSecond` are overridden per run (the rate is derived
     *  once from it). */
    core::ExperimentParams base;
    /** Quantiles to model (the paper reports P50/P95/P99 in Table IV
     *  and adds P90 in Figs 7-10). */
    std::vector<double> quantiles{0.5, 0.95, 0.99};
    /** Experiments per factorial cell (paper: >= 30). */
    unsigned repsPerConfig = 30;
    /** Bootstrap replicates for standard errors. */
    std::size_t bootstrapReplicates = 200;
    /** Seeds the run order, every run seed, and the fit. */
    std::uint64_t seed = 1;
    /** StudyDriver's simulation fan-out; the levels, responses and
     *  models are bit-exact for every setting (each run's seed depends
     *  only on its plan index). */
    exec::Parallelism parallelism{};
    /** Optional sweep observer, forwarded to StudyDriver (runs done /
     *  total, wall-clock, achieved sim-time throughput). */
    exec::ProgressFn progress{};
};

/** Table IV row: one term of one quantile model. */
struct TermEstimate {
    std::string name;
    double estimate = 0.0;
    double standardError = 0.0;
    double pValue = 1.0;
};

/** The fitted model for one quantile. */
struct QuantileModel {
    double tau = 0.5;
    std::vector<TermEstimate> terms;
    double pseudoR2 = 0.0;
    regress::QuantRegResult fit;
};

/** Complete outcome of an attribution study: its data set and fit. */
struct AttributionResult {
    /** One 0/1 level vector per run, in `design`'s factor order. */
    std::vector<std::vector<double>> levels;
    /** tau -> one per-instance aggregated response per run (us), in
     *  the order of `levels`. */
    std::map<double, std::vector<double>> responses;
    std::vector<QuantileModel> models;
    regress::FactorialDesign design{
        std::vector<std::string>{"numa", "turbo", "dvfs", "nic"}};

    /** Model for quantile @p tau; throws if not fitted. */
    const QuantileModel &model(double tau) const;

    /**
     * Predicted tau-quantile latency for @p config (sum of active
     * coefficients, Table IV usage example).
     */
    double predict(double tau, const hw::HardwareConfig &config) const;

    /**
     * Average impact of switching factor @p factorIdx to high level,
     * assuming all other factors are equally likely low or high
     * (Figs 8 and 10).
     */
    double averageFactorImpact(double tau, std::size_t factorIdx) const;

    /**
     * Average impact of switching factor @p factorIdx to high level
     * with factor @p givenIdx pinned at @p givenHigh, averaging over
     * the remaining factors. Exposes conditional effects such as
     * "turbo given the performance governor" (Finding 8's thermal
     * interaction).
     */
    double averageFactorImpactGiven(double tau, std::size_t factorIdx,
                                    std::size_t givenIdx,
                                    bool givenHigh) const;
};

/** Controls for fitting factorial quantile-regression models to an
 *  arbitrary (design, levels, responses) data set. */
struct FactorialFitParams {
    std::vector<double> quantiles{0.5, 0.95, 0.99};
    std::size_t bootstrapReplicates = 200;
    std::uint64_t seed = 1;
};

/**
 * Fit one QuantileModel per requested tau to a generic 2-level
 * factorial data set. This is the engine behind drive::StudyDriver and
 * analysis::refitFromStore, so studies with factor sets other than the
 * hardware one -- e.g. injected-fault toggles -- get the identical
 * treatment: the exact quantile regression with all interactions,
 * within-cell bootstrap standard errors, pseudo-R^2.
 *
 * @param design The factor structure (any names/count).
 * @param levels One level vector (0/1 per factor) per observation.
 * @param responses tau -> one response per observation (microseconds);
 *        must contain every tau in params.quantiles.
 * @throws ConfigError on a level other than 0 or 1, a cell with fewer
 *         than 2 observations, or fewer than 2 bootstrap replicates;
 *         NumericalError on missing observations or responses.
 */
std::vector<QuantileModel> fitFactorialModels(
    const regress::FactorialDesign &design,
    const std::vector<std::vector<double>> &levels,
    const std::map<double, std::vector<double>> &responses,
    const FactorialFitParams &params);

} // namespace analysis
} // namespace treadmill

#endif // TREADMILL_ANALYSIS_ATTRIBUTION_H_
