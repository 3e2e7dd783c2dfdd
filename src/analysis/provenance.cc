#include "analysis/provenance.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "stats/summary.h"
#include "util/error.h"
#include "util/strings.h"

namespace treadmill {
namespace analysis {

const SegmentContribution &
QuantileProvenance::dominant() const
{
    if (segments.empty())
        throw NumericalError("provenance band holds no segments");
    return segments.front();
}

const QuantileProvenance &
ProvenanceReport::at(double tau) const
{
    for (const QuantileProvenance &q : quantiles) {
        if (std::fabs(q.tau - tau) < 1e-12)
            return q;
    }
    throw NumericalError(
        strprintf("no provenance computed for tau=%g", tau));
}

namespace {

/** Rank key of one decomposable span: its end-to-end latency and its
 *  position in the log. Ordering by (endToEndUs, span) is exactly a
 *  stable sort by latency: equal latencies keep completion order, so
 *  the report is deterministic. */
struct RankKey {
    double endToEndUs = 0.0;
    std::size_t span = 0;
};

/**
 * Extract every span's critical path once and return the decomposable
 * spans' keys in rank order. When @p decomps is given it receives each
 * decomposable span's per-kind sums, indexed by position in the log.
 */
std::vector<RankKey>
rankSpans(const obs::SpanLog &spans,
          std::vector<obs::ClusterDecomposition> *decomps = nullptr)
{
    std::vector<RankKey> keys;
    keys.reserve(spans.size());
    if (decomps != nullptr)
        decomps->assign(spans.size(), obs::ClusterDecomposition{});
    obs::CriticalPath path;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const obs::SpanView span = spans[i];
        if (!obs::extractCriticalPath(span, path))
            continue;
        keys.push_back({span.trace.endToEndUs(), i});
        if (decomps != nullptr)
            (*decomps)[i] = obs::ClusterDecomposition::of(span, path);
    }
    if (keys.empty())
        throw NumericalError(
            "no span yielded a complete critical path");
    std::sort(keys.begin(), keys.end(),
              [](const RankKey &a, const RankKey &b) {
                  return a.endToEndUs < b.endToEndUs ||
                         (a.endToEndUs == b.endToEndUs && a.span < b.span);
              });
    return keys;
}

/** Sums over the spans of one band, re-walking only their paths. */
QuantileProvenance
bandProvenance(const obs::SpanLog &spans,
               const std::vector<RankKey> &ranked, double tau)
{
    QuantileProvenance q;
    q.tau = tau;

    const std::size_t n = ranked.size();
    // Rank window [tau - h, tau + h]: wide at the median, but capped
    // so the tail band cannot leak into the body of the distribution.
    const double h = std::min(0.05, (1.0 - tau) / 2.0);
    const double lo = std::max(0.0, tau - h);
    const double hi = std::min(1.0, tau + h);
    const auto last = static_cast<double>(n - 1);
    std::size_t iLo =
        static_cast<std::size_t>(std::floor(lo * last));
    std::size_t iHi =
        static_cast<std::size_t>(std::ceil(hi * last));
    iHi = std::min(iHi, n - 1);
    if (iLo > iHi)
        iLo = iHi;

    q.spanCount = iHi - iLo + 1;
    q.bandLowUs = ranked[iLo].endToEndUs;
    q.bandHighUs = ranked[iHi].endToEndUs;

    // Integer-nanosecond sums, so shares inherit the telescoping
    // exactness of the per-span decomposition.
    std::uint64_t kindNs[obs::kSegmentKindCount] = {};
    std::uint64_t totalNs = 0;
    std::map<std::int32_t, std::uint64_t> backendNs;
    obs::CriticalPath path;
    for (std::size_t i = iLo; i <= iHi; ++i) {
        const obs::SpanView span = spans[ranked[i].span];
        obs::extractCriticalPath(span, path); // Succeeded when ranked.
        for (std::size_t s = 0; s < path.count; ++s) {
            const obs::PathSegment &seg = path.segments[s];
            kindNs[static_cast<std::size_t>(seg.kind)] += seg.ns();
            backendNs[seg.backendId] += seg.ns();
        }
        totalNs += span.trace.clientReceive - span.trace.intendedSend;
    }
    const auto count = static_cast<double>(q.spanCount);
    const double totalUs = static_cast<double>(totalNs) / 1000.0;
    q.meanEndToEndUs = totalUs / count;

    for (std::size_t k = 0; k < obs::kSegmentKindCount; ++k) {
        if (kindNs[k] == 0)
            continue;
        SegmentContribution c;
        c.kind = static_cast<obs::SegmentKind>(k);
        c.meanUs = static_cast<double>(kindNs[k]) / 1000.0 / count;
        c.share = totalNs > 0 ? static_cast<double>(kindNs[k]) /
                                    static_cast<double>(totalNs)
                              : 0.0;
        q.segments.push_back(c);
    }
    std::stable_sort(q.segments.begin(), q.segments.end(),
                     [](const SegmentContribution &a,
                        const SegmentContribution &b) {
                         return a.meanUs > b.meanUs;
                     });

    for (const auto &[backend, ns] : backendNs) {
        BackendContribution c;
        c.backendId = backend;
        c.meanUs = static_cast<double>(ns) / 1000.0 / count;
        c.share = totalNs > 0 ? static_cast<double>(ns) /
                                    static_cast<double>(totalNs)
                              : 0.0;
        q.backends.push_back(c);
    }
    std::stable_sort(q.backends.begin(), q.backends.end(),
                     [](const BackendContribution &a,
                        const BackendContribution &b) {
                         return a.meanUs > b.meanUs;
                     });
    return q;
}

} // namespace

ProvenanceReport
tailProvenance(const obs::SpanLog &spans,
               const std::vector<double> &quantiles)
{
    if (quantiles.empty())
        throw ConfigError("provenance needs at least one quantile");
    for (double tau : quantiles) {
        if (!(tau > 0.0) || !(tau < 1.0))
            throw ConfigError(strprintf(
                "provenance quantiles must lie in (0, 1), got %g", tau));
    }
    ProvenanceReport report;
    report.totalSpans = spans.size();
    const std::vector<RankKey> ranked = rankSpans(spans);
    report.decomposed = ranked.size();
    for (double tau : quantiles)
        report.quantiles.push_back(bandProvenance(spans, ranked, tau));
    return report;
}

namespace {

/** The report over per-component samples and end-to-end samples, each
 *  in the order the means sum them. */
DecompositionReport
buildReport(const std::vector<std::string> &names,
            const std::vector<std::vector<double>> &perComponent,
            const std::vector<double> &endToEnd,
            const std::vector<double> &quantiles)
{
    DecompositionReport report;
    report.quantiles = quantiles;
    report.requestCount = endToEnd.size();
    report.endToEndMeanUs = stats::mean(endToEnd);
    for (double tau : quantiles)
        report.endToEndQuantileUs.push_back(
            stats::quantile(endToEnd, tau));
    for (std::size_t c = 0; c < names.size(); ++c) {
        DecompositionReport::Component component;
        component.name = names[c];
        component.meanUs = stats::mean(perComponent[c]);
        component.meanShare =
            report.endToEndMeanUs > 0.0
                ? component.meanUs / report.endToEndMeanUs
                : 0.0;
        for (double tau : quantiles)
            component.quantileUs.push_back(
                stats::quantile(perComponent[c], tau));
        report.components.push_back(std::move(component));
    }
    return report;
}

/** Call @p visit(span, rows) with the eight rows of every span of
 *  @p spans that has a critical path, in completion order. */
template <typename Visit>
void
forEachRows(const obs::SpanLog &spans, Visit &&visit)
{
    obs::CriticalPath path;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const obs::SpanView span = spans[i];
        if (obs::extractCriticalPath(span, path))
            visit(span.trace, obs::pathRowsNs(path, span.trace.winner));
    }
}

} // namespace

DecompositionReport
decomposeRows(const obs::SpanLog &spans,
              const std::vector<double> &quantiles)
{
    if (quantiles.empty())
        throw ConfigError("decomposition needs at least one quantile");
    std::vector<std::vector<double>> perRow(obs::kPathRowCount);
    std::vector<double> endToEnd;
    forEachRows(spans, [&](const obs::SpanTrace &span,
                           const auto &rows) {
        for (std::size_t r = 0; r < rows.size(); ++r)
            perRow[r].push_back(toMicros(rows[r]));
        endToEnd.push_back(span.endToEndUs());
    });
    if (endToEnd.empty())
        throw NumericalError(
            "no span yielded a complete critical path");
    return buildReport(obs::pathRowNames(), perRow, endToEnd, quantiles);
}

DecompositionReport
decomposeSpans(const obs::SpanLog &spans,
               const std::vector<double> &quantiles)
{
    if (quantiles.empty())
        throw ConfigError("decomposition needs at least one quantile");
    std::vector<obs::ClusterDecomposition> decomps;
    const std::vector<RankKey> ranked = rankSpans(spans, &decomps);

    // Samples go in rank order: the means are summed in that order.
    std::vector<std::vector<double>> perKind(obs::kSegmentKindCount);
    std::vector<double> endToEnd;
    endToEnd.reserve(ranked.size());
    for (auto &samples : perKind)
        samples.reserve(ranked.size());
    for (const RankKey &key : ranked) {
        const obs::ClusterDecomposition &d = decomps[key.span];
        for (std::size_t k = 0; k < obs::kSegmentKindCount; ++k)
            perKind[k].push_back(d.us(static_cast<obs::SegmentKind>(k)));
        endToEnd.push_back(key.endToEndUs);
    }
    return buildReport(obs::segmentKindNames(), perKind, endToEnd,
                       quantiles);
}

Fig3Samples
fig3Samples(const obs::SpanLog &spans)
{
    Fig3Samples out;
    forEachRows(spans, [&out](const obs::SpanTrace &, const auto &r) {
        out.serverUs.push_back(toMicros(r[3] + r[4] + r[5]));
        out.networkUs.push_back(toMicros(r[2] + r[6]));
        out.clientUs.push_back(toMicros(r[0] + r[1] + r[7]));
    });
    return out;
}

std::string
renderProvenanceTable(const ProvenanceReport &report)
{
    const auto &names = obs::segmentKindNames();
    std::string out = strprintf(
        "tail provenance: %zu spans, %zu decomposed\n",
        report.totalSpans, report.decomposed);
    for (const QuantileProvenance &q : report.quantiles) {
        out += strprintf(
            "\nP%g band: %zu spans, [%.1f, %.1f] us, mean %.1f us\n",
            q.tau * 100.0, q.spanCount, q.bandLowUs, q.bandHighUs,
            q.meanEndToEndUs);
        TextTable segments({"segment", "mean", "share"});
        for (const SegmentContribution &c : q.segments) {
            segments.addRow(
                {names[static_cast<std::size_t>(c.kind)],
                 formatMicros(c.meanUs),
                 strprintf("%.1f%%", c.share * 100.0)});
        }
        out += segments.render();
        TextTable backends({"attributed to", "mean", "share"});
        for (const BackendContribution &c : q.backends) {
            backends.addRow(
                {c.backendId < 0
                     ? std::string("client/net/router")
                     : strprintf("backend %d", c.backendId),
                 formatMicros(c.meanUs),
                 strprintf("%.1f%%", c.share * 100.0)});
        }
        out += backends.render();
    }
    return out;
}

json::Value
provenanceToJson(const ProvenanceReport &report)
{
    const auto &names = obs::segmentKindNames();
    json::Object doc;
    doc["schema"] = json::Value("provenance/1");
    doc["total_spans"] =
        json::Value(static_cast<std::int64_t>(report.totalSpans));
    doc["decomposed"] =
        json::Value(static_cast<std::int64_t>(report.decomposed));
    json::Array rows;
    for (const QuantileProvenance &q : report.quantiles) {
        json::Object row;
        row["tau"] = json::Value(q.tau);
        row["band_low_us"] = json::Value(q.bandLowUs);
        row["band_high_us"] = json::Value(q.bandHighUs);
        row["span_count"] =
            json::Value(static_cast<std::int64_t>(q.spanCount));
        row["mean_end_to_end_us"] = json::Value(q.meanEndToEndUs);
        json::Array segments;
        for (const SegmentContribution &c : q.segments) {
            json::Object seg;
            seg["segment"] =
                json::Value(names[static_cast<std::size_t>(c.kind)]);
            seg["mean_us"] = json::Value(c.meanUs);
            seg["share"] = json::Value(c.share);
            segments.push_back(json::Value(std::move(seg)));
        }
        row["segments"] = json::Value(std::move(segments));
        json::Array backends;
        for (const BackendContribution &c : q.backends) {
            json::Object be;
            be["backend"] =
                json::Value(static_cast<std::int64_t>(c.backendId));
            be["mean_us"] = json::Value(c.meanUs);
            be["share"] = json::Value(c.share);
            backends.push_back(json::Value(std::move(be)));
        }
        row["backends"] = json::Value(std::move(backends));
        rows.push_back(json::Value(std::move(row)));
    }
    doc["quantiles"] = json::Value(std::move(rows));
    return json::Value(std::move(doc));
}

} // namespace analysis
} // namespace treadmill
