/**
 * @file
 * Machine-readable (JSON) export of experiment and attribution
 * results.
 *
 * Treadmill is a measurement tool; its outputs feed dashboards,
 * regression detectors, and notebooks. These exporters serialize the
 * result structures to the same JSON dialect the workload configs use,
 * so a run's inputs and outputs round-trip through one format.
 */

#ifndef TREADMILL_ANALYSIS_EXPORT_H_
#define TREADMILL_ANALYSIS_EXPORT_H_

#include "analysis/attribution.h"
#include "analysis/recommend.h"
#include "analysis/report.h"
#include "core/experiment.h"
#include "util/json.h"

namespace treadmill {
namespace analysis {

/**
 * Serialize one experiment result: throughput, utilization,
 * per-instance quantiles, aggregated quantiles, ground-truth
 * quantiles, and the Fig 3 server / network / client components of
 * the retained spans (fig3Samples(); run with trace.enabled and
 * sampleEvery 1 to cover every request). Raw sample vectors are
 * summarized (counts + quantiles), not dumped.
 */
json::Value toJson(const core::ExperimentResult &result);

/**
 * Serialize an attribution result: per-quantile models with term
 * estimates, standard errors, p-values, and pseudo-R^2.
 */
json::Value toJson(const AttributionResult &attribution);

/** Serialize a bare fitted-model set (any factorial design). */
json::Value toJson(const std::vector<QuantileModel> &models);

/** Serialize a Fig 12-style improvement evaluation. */
json::Value toJson(const ImprovementResult &result);

/**
 * Serialize a per-component latency decomposition: one entry per path
 * component with mean/quantiles/share, plus the end-to-end reference.
 */
json::Value toJson(const DecompositionReport &report);

} // namespace analysis
} // namespace treadmill

#endif // TREADMILL_ANALYSIS_EXPORT_H_
