/**
 * @file
 * Configuration recommendation and the Fig 12 before/after data model.
 *
 * The attribution model predicts every factorial cell's quantile
 * latency; the recommendation is the argmin. The improvement
 * evaluation replays the paper's Fig 12 protocol: many runs under
 * randomly drawn configurations ("before") against the same number of
 * runs under the recommended configuration ("after"), comparing both
 * the level and the run-to-run variance of the tail. This header holds
 * its controls and result; the runs happen in
 * drive::evaluateImprovement.
 */

#ifndef TREADMILL_ANALYSIS_RECOMMEND_H_
#define TREADMILL_ANALYSIS_RECOMMEND_H_

#include <cstdint>
#include <vector>

#include "analysis/attribution.h"
#include "core/experiment.h"
#include "hw/hardware_config.h"

namespace treadmill {
namespace analysis {

/** Predicted latency of one configuration cell. */
struct ConfigPrediction {
    hw::HardwareConfig config;
    double predictedUs = 0.0;
};

/** All 16 cells ranked by predicted tau-quantile (best first). */
std::vector<ConfigPrediction>
rankConfigurations(const AttributionResult &attribution, double tau);

/** The predicted-best configuration for quantile tau. */
hw::HardwareConfig bestConfiguration(
    const AttributionResult &attribution, double tau);

/** One arm of the Fig 12 comparison. */
struct ImprovementArm {
    std::vector<double> perRunQuantileUs;
    double mean = 0.0;
    double stddev = 0.0;
};

/** Outcome of the before/after evaluation. */
struct ImprovementResult {
    ImprovementArm before; ///< Random configurations.
    ImprovementArm after;  ///< Recommended configuration.
    hw::HardwareConfig recommended;
    double tau = 0.99;

    /** Fractional reduction of the mean tail latency. */
    double latencyReduction() const;

    /** Fractional reduction of the run-to-run standard deviation. */
    double variabilityReduction() const;
};

/** Controls for the improvement evaluation
 *  (drive::evaluateImprovement). */
struct ImprovementParams {
    core::ExperimentParams base;
    double tau = 0.99;
    /** Runs per arm (paper: 100). */
    unsigned runsPerArm = 100;
    std::uint64_t seed = 1;
};

} // namespace analysis
} // namespace treadmill

#endif // TREADMILL_ANALYSIS_RECOMMEND_H_
