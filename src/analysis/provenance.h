/**
 * @file
 * Tail provenance: which critical-path segment owns each latency
 * quantile.
 *
 * decomposeRows() answers "where does the time go on average and at
 * the quantiles, component by component" over the eight rows of every
 * span's critical path. This module also asks the sharper question the
 * span model makes answerable: for the requests that *are* the P99,
 * which segment of their critical path -- balancer queueing, a
 * backend's worker queue, a retry backoff -- put them there, and which
 * backend is it attributable to?
 *
 * Method: every span's critical path is extracted
 * (obs::extractCriticalPath) and aggregated per obs::SegmentKind
 * (integer nanoseconds, telescoping exactly to end-to-end). Spans are
 * ranked by end-to-end latency, and each requested quantile tau gets a
 * rank window [tau - h, tau + h] with h = min(0.05, (1 - tau) / 2) --
 * wide enough to average noise away at the median, narrow enough that
 * the P99 band does not leak into the body. Within the band, segment
 * means and shares are ranked; per-backend attribution sums every
 * segment whose time is attributable to a backend (waits on an
 * unanswered attempt count against the backend being waited on).
 *
 * Cost: one path extraction per span to rank 16-byte (latency,
 * completion index) keys -- ties keep completion order -- then a
 * second walk over only the spans inside each band.
 */

#ifndef TREADMILL_ANALYSIS_PROVENANCE_H_
#define TREADMILL_ANALYSIS_PROVENANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "obs/span.h"
#include "util/json.h"

namespace treadmill {
namespace analysis {

/** One segment kind's contribution within a quantile band. */
struct SegmentContribution {
    obs::SegmentKind kind = obs::SegmentKind::ClientQueue;
    double meanUs = 0.0; ///< Mean over the band's spans.
    double share = 0.0;  ///< Fraction of the band's end-to-end mean.
};

/** One backend's attributable share within a quantile band. Id -1
 *  collects client/network/router time no backend owns. */
struct BackendContribution {
    std::int32_t backendId = -1;
    double meanUs = 0.0;
    double share = 0.0;
};

/** Provenance of one quantile. */
struct QuantileProvenance {
    double tau = 0.5;
    /** End-to-end latency range of the band's spans, microseconds. */
    double bandLowUs = 0.0;
    double bandHighUs = 0.0;
    std::size_t spanCount = 0; ///< Spans inside the rank window.
    double meanEndToEndUs = 0.0;
    /** Segment contributions, largest mean first. */
    std::vector<SegmentContribution> segments;
    /** Backend attribution, largest mean first. */
    std::vector<BackendContribution> backends;

    /** The ranked-first segment (throws if the band was empty). */
    const SegmentContribution &dominant() const;
};

/** Full tail-provenance report. */
struct ProvenanceReport {
    std::vector<QuantileProvenance> quantiles;
    std::size_t totalSpans = 0; ///< Spans offered.
    std::size_t decomposed = 0; ///< Spans with a valid critical path.

    /** The report for quantile @p tau; throws if absent. */
    const QuantileProvenance &at(double tau) const;
};

/**
 * Compute the tail-provenance report of @p spans at @p quantiles.
 * Spans whose critical path cannot be extracted (incomplete winner
 * timeline) are skipped and counted in totalSpans - decomposed.
 * Throws ConfigError, before extracting any path, when @p quantiles
 * is empty or holds a tau outside (0, 1); throws NumericalError when
 * no span decomposes.
 */
ProvenanceReport
tailProvenance(const obs::SpanLog &spans,
               const std::vector<double> &quantiles = {0.5, 0.99});

/**
 * The eight-row decomposition of @p spans: one component per
 * obs::pathRowNames() row over every span with a critical path, in
 * completion order, with per-quantile component values (defaults to
 * P50/P99/P99.9). Throws ConfigError when @p quantiles is empty and
 * NumericalError when no span decomposes.
 */
DecompositionReport
decomposeRows(const obs::SpanLog &spans,
              const std::vector<double> &quantiles = {0.5, 0.99,
                                                      0.999});

/**
 * The cluster-aware analogue of decomposeRows(): one component per
 * obs::SegmentKind over *all* decomposable spans, in rank order, with
 * per-quantile component values. Because each span's segments
 * telescope exactly, the component means sum to the end-to-end mean.
 */
DecompositionReport
decomposeSpans(const obs::SpanLog &spans,
               const std::vector<double> &quantiles = {0.5, 0.99,
                                                       0.999});

/**
 * Fig 3's server / network / client latency split: one sample per
 * span with a critical path, in completion order, microseconds. Each
 * groups the eight rows in integer ns: server = server queue + service
 * + server nic, network = net request + net response, client =
 * pre-win wait + client queue + client deliver.
 */
struct Fig3Samples {
    std::vector<double> serverUs;
    std::vector<double> networkUs;
    std::vector<double> clientUs;
};

/** The Fig 3 split of every decomposable span of @p spans. */
Fig3Samples fig3Samples(const obs::SpanLog &spans);

/** Render a ProvenanceReport as aligned text tables (one block per
 *  quantile: ranked segments, then backend attribution). */
std::string renderProvenanceTable(const ProvenanceReport &report);

/** Serialize a ProvenanceReport (schema "provenance/1"). */
json::Value provenanceToJson(const ProvenanceReport &report);

} // namespace analysis
} // namespace treadmill

#endif // TREADMILL_ANALYSIS_PROVENANCE_H_
