/**
 * @file
 * Factor screening by null-hypothesis testing (paper S IV-B).
 *
 * Before fitting the full factorial model, the paper identifies which
 * candidate factors "actually have an impact on the tail latency"
 * using null-hypothesis tests over experiments run under random
 * permutations of all factors. screenFactors() implements that step:
 * for each factor it splits the runs into low/high groups and
 * permutation-tests the difference of the group tau-quantile means.
 */

#ifndef TREADMILL_ANALYSIS_SCREENING_H_
#define TREADMILL_ANALYSIS_SCREENING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/attribution.h"

namespace treadmill {
namespace analysis {

/** Screening verdict for one candidate factor. */
struct FactorScreen {
    std::string name;
    double effectUs = 0.0; ///< mean(high group) - mean(low group).
    double pValue = 1.0;
    bool significant = false;
};

/** Controls for the screening pass. */
struct ScreeningParams {
    double tau = 0.99;
    double significance = 0.05;
    std::size_t permutations = 2000;
    std::uint64_t seed = 1;
    /** Fan the per-factor permutation tests across threads; each
     *  factor's Rng is an index-derived substream, so the screens are
     *  bit-exact for every setting. */
    exec::Parallelism parallelism{};
};

/**
 * Screen every factor of @p study's design against its runs, collected
 * under random factor permutations (drive::runAttribution output):
 * its `levels` and its `responses` at params.tau.
 *
 * @throws NumericalError when the study has no runs, has no responses
 *         at params.tau, or a factor never varies in the data;
 *         ConfigError when a run's levels do not match the design.
 */
std::vector<FactorScreen>
screenFactors(const AttributionResult &study,
              const ScreeningParams &params);

} // namespace analysis
} // namespace treadmill

#endif // TREADMILL_ANALYSIS_SCREENING_H_
