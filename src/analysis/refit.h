/**
 * @file
 * Re-analysis straight from the run store -- no simulation.
 *
 * Every entry point here consumes a store::StudyReader and produces
 * the same artifacts the live pipeline produces, bit-identically:
 * refitFromStore() re-fits the factorial quantile-regression models
 * from the archived levels and snapshotted per-instance responses --
 * the one data set the live fit read -- and provenanceRankFromStore()
 * re-ranks tail-provenance segment shares from the archived per-run
 * rows. "Tell-Tale Tail Latencies" (PAPERS.md) is the motivation:
 * conclusions should be re-examinable from persisted data, which holds
 * only when the re-examination computes the same quantity. So a tau
 * the archive did not snapshot is refused rather than recomputed from
 * the merged reservoir, which would merge before extracting (the
 * paper's pitfall 2, Fig 2).
 */

#ifndef TREADMILL_ANALYSIS_REFIT_H_
#define TREADMILL_ANALYSIS_REFIT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/attribution.h"
#include "store/reader.h"

namespace treadmill {
namespace analysis {

/**
 * Re-fit the factorial quantile-regression models from the archive:
 * every run's factor levels and, for each tau in params.quantiles, its
 * snapshotted response, in run-sequence order. Given the same
 * FactorialFitParams that produced a live fit, the coefficients are
 * bit-identical to that fit -- the acceptance bar for
 * refit-from-archive.
 *
 * @throws store errors on unreadable runs; ConfigError naming the tau
 *         and the snapshotted ones when a run did not snapshot a
 *         requested tau.
 */
std::vector<QuantileModel> refitFromStore(
    const store::StudyReader &study,
    const FactorialFitParams &params);

/** One re-ranked provenance segment. */
struct StoredProvenanceRank {
    std::uint64_t kind = 0; ///< obs::SegmentKind as stored.
    std::string name;       ///< Human-readable segment name.
    double meanUs = 0.0;    ///< Mean over contributing runs.
    double share = 0.0;     ///< Mean share over contributing runs.
    std::size_t runs = 0;   ///< Runs carrying this segment.
};

/**
 * Aggregate the archived tail-provenance rows across runs and re-rank
 * segments (largest mean share first) per tau. Runs without
 * provenance columns are skipped; the result is empty when no run
 * carried them.
 */
std::map<double, std::vector<StoredProvenanceRank>>
provenanceRankFromStore(const store::StudyReader &study);

} // namespace analysis
} // namespace treadmill

#endif // TREADMILL_ANALYSIS_REFIT_H_
