/**
 * @file
 * Differential test of tail provenance against its reference: the
 * full-record algorithm (extract every critical path, sum each span's
 * segments per kind by hand, stable_sort whole records by end-to-end
 * latency, then sum each band). The key-ranked implementation must
 * reproduce its ProvenanceReport bit for bit on seeded random span
 * sets, and the Segment decomposition must reproduce the reference's
 * per-kind DecompositionReport, summed in completion order, bit for
 * bit too.
 */

#include "analysis/provenance.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <map>

#include <gtest/gtest.h>

#include "stats/summary.h"
#include "util/error.h"
#include "util/rng.h"

namespace treadmill {
namespace analysis {
namespace {

// ----------------------------------------------------- the reference

struct ReferenceSpan {
    obs::CriticalPath path;
    /** The path's segments summed per kind, here rather than through
     *  obs::columnsNs, so the reference stays independent of it. */
    std::array<SimDuration, obs::kSegmentKindCount> kindNs{};
    SimDuration endToEndNs = 0;
    double endToEndUs = 0.0;
};

/** Every span with a critical path, in completion order. */
std::vector<ReferenceSpan>
referenceDecomposeAll(const obs::SpanLog &spans)
{
    std::vector<ReferenceSpan> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        ReferenceSpan d;
        if (!obs::extractCriticalPath(spans[i], d.path))
            continue;
        for (std::size_t s = 0; s < d.path.count; ++s) {
            const obs::PathSegment &seg = d.path.segments[s];
            d.kindNs[static_cast<std::size_t>(seg.kind)] += seg.ns();
        }
        d.endToEndNs =
            spans[i].trace.clientReceive - spans[i].trace.intendedSend;
        d.endToEndUs = toMicros(d.endToEndNs);
        out.push_back(d);
    }
    return out;
}

/** @p spans stable-sorted by end-to-end latency. */
std::vector<ReferenceSpan>
referenceRank(std::vector<ReferenceSpan> spans)
{
    std::stable_sort(spans.begin(), spans.end(),
                     [](const ReferenceSpan &a, const ReferenceSpan &b) {
                         return a.endToEndUs < b.endToEndUs;
                     });
    return spans;
}

QuantileProvenance
referenceBand(const std::vector<ReferenceSpan> &ranked, double tau)
{
    QuantileProvenance q;
    q.tau = tau;
    const std::size_t n = ranked.size();
    const double h = std::min(0.05, (1.0 - tau) / 2.0);
    const double lo = std::max(0.0, tau - h);
    const double hi = std::min(1.0, tau + h);
    const auto last = static_cast<double>(n - 1);
    std::size_t iLo = static_cast<std::size_t>(std::floor(lo * last));
    std::size_t iHi = static_cast<std::size_t>(std::ceil(hi * last));
    iHi = std::min(iHi, n - 1);
    if (iLo > iHi)
        iLo = iHi;
    q.spanCount = iHi - iLo + 1;
    q.bandLowUs = ranked[iLo].endToEndUs;
    q.bandHighUs = ranked[iHi].endToEndUs;

    std::uint64_t kindNs[obs::kSegmentKindCount] = {};
    std::uint64_t totalNs = 0;
    std::map<std::int32_t, std::uint64_t> backendNs;
    for (std::size_t i = iLo; i <= iHi; ++i) {
        const ReferenceSpan &d = ranked[i];
        for (std::size_t k = 0; k < obs::kSegmentKindCount; ++k)
            kindNs[k] += d.kindNs[k];
        totalNs += d.endToEndNs;
        for (std::size_t s = 0; s < d.path.count; ++s)
            backendNs[d.path.segments[s].backendId] +=
                d.path.segments[s].ns();
    }
    const auto count = static_cast<double>(q.spanCount);
    q.meanEndToEndUs = static_cast<double>(totalNs) / 1000.0 / count;
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

ProvenanceReport
referenceTailProvenance(const obs::SpanLog &spans,
                        const std::vector<double> &taus)
{
    ProvenanceReport report;
    report.totalSpans = spans.size();
    const auto ranked = referenceRank(referenceDecomposeAll(spans));
    report.decomposed = ranked.size();
    for (double tau : taus)
        report.quantiles.push_back(referenceBand(ranked, tau));
    return report;
}

/** The per-kind decomposition, its means summed in completion order. */
DecompositionReport
referenceDecomposeSegments(const obs::SpanLog &spans,
                           const std::vector<double> &taus)
{
    const auto decomposed = referenceDecomposeAll(spans);
    std::vector<std::vector<double>> perKind(obs::kSegmentKindCount);
    std::vector<double> endToEnd;
    for (const ReferenceSpan &d : decomposed) {
        for (std::size_t k = 0; k < obs::kSegmentKindCount; ++k)
            perKind[k].push_back(toMicros(d.kindNs[k]));
        endToEnd.push_back(d.endToEndUs);
    }
    DecompositionReport report;
    report.quantiles = taus;
    report.requestCount = decomposed.size();
    report.endToEndMeanUs = stats::mean(endToEnd);
    for (double tau : taus)
        report.endToEndQuantileUs.push_back(stats::quantile(endToEnd, tau));
    for (std::size_t k = 0; k < obs::kSegmentKindCount; ++k) {
        DecompositionReport::Component c;
        c.name = obs::columnNames(obs::Grouping::Segment)[k];
        c.meanUs = stats::mean(perKind[k]);
        c.meanShare = report.endToEndMeanUs > 0.0
                          ? c.meanUs / report.endToEndMeanUs
                          : 0.0;
        for (double tau : taus)
            c.quantileUs.push_back(stats::quantile(perKind[k], tau));
        report.components.push_back(c);
    }
    return report;
}

// ---------------------------------------------------- bit comparison

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectSameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(sameBits(a[i], b[i])) << i << ": " << a[i] << " vs "
                                          << b[i];
}

void
expectSameReport(const ProvenanceReport &got, const ProvenanceReport &want)
{
    EXPECT_EQ(got.totalSpans, want.totalSpans);
    EXPECT_EQ(got.decomposed, want.decomposed);
    ASSERT_EQ(got.quantiles.size(), want.quantiles.size());
    for (std::size_t i = 0; i < want.quantiles.size(); ++i) {
        const QuantileProvenance &g = got.quantiles[i];
        const QuantileProvenance &w = want.quantiles[i];
        EXPECT_TRUE(sameBits(g.tau, w.tau));
        EXPECT_EQ(g.spanCount, w.spanCount) << "tau " << w.tau;
        expectSameBits({g.bandLowUs, g.bandHighUs, g.meanEndToEndUs},
                       {w.bandLowUs, w.bandHighUs, w.meanEndToEndUs});
        ASSERT_EQ(g.segments.size(), w.segments.size()) << "tau " << w.tau;
        for (std::size_t s = 0; s < w.segments.size(); ++s) {
            EXPECT_EQ(g.segments[s].kind, w.segments[s].kind);
            expectSameBits({g.segments[s].meanUs, g.segments[s].share},
                           {w.segments[s].meanUs, w.segments[s].share});
        }
        ASSERT_EQ(g.backends.size(), w.backends.size()) << "tau " << w.tau;
        for (std::size_t b = 0; b < w.backends.size(); ++b) {
            EXPECT_EQ(g.backends[b].backendId, w.backends[b].backendId);
            expectSameBits({g.backends[b].meanUs, g.backends[b].share},
                           {w.backends[b].meanUs, w.backends[b].share});
        }
    }
}

void
expectSameReport(const DecompositionReport &got,
                 const DecompositionReport &want)
{
    EXPECT_EQ(got.requestCount, want.requestCount);
    expectSameBits(got.quantiles, want.quantiles);
    expectSameBits({got.endToEndMeanUs}, {want.endToEndMeanUs});
    expectSameBits(got.endToEndQuantileUs, want.endToEndQuantileUs);
    ASSERT_EQ(got.components.size(), want.components.size());
    for (std::size_t k = 0; k < want.components.size(); ++k) {
        EXPECT_EQ(got.components[k].name, want.components[k].name);
        expectSameBits({got.components[k].meanUs,
                        got.components[k].meanShare},
                       {want.components[k].meanUs,
                        want.components[k].meanShare});
        expectSameBits(got.components[k].quantileUs,
                       want.components[k].quantileUs);
    }
}

// ------------------------------------------------- random span sets

/** Hop durations from a small set, so end-to-end latencies collide.
 *  Their microsecond values are inexact in binary, so a mean summed
 *  in another order rounds differently. */
SimDuration
hop(Rng &rng)
{
    static const SimDuration kHops[] = {0, 333, 1'001, 2'017, 7'777};
    return kHops[rng.nextBelow(5)];
}

/** A complete attempt triggered at @p at: classic or through the
 *  cluster tier on @p backend. */
obs::AttemptSpan
wireAttempt(Rng &rng, SimTime at, bool cluster, std::int32_t backend)
{
    obs::AttemptSpan a;
    a.backendId = backend;
    a.triggerAt = at;
    a.clientSend = a.triggerAt + hop(rng);
    a.nicArrival = a.clientSend + hop(rng);
    a.workerStart = a.nicArrival + hop(rng);
    SimTime t = a.workerStart;
    if (cluster) {
        a.lbArrival = t += hop(rng);
        a.lbDispatch = t += hop(rng);
        a.backendNicArrival = t += hop(rng);
        a.backendWorkerStart = t +=
            hop(rng) + 1'000 * static_cast<SimDuration>(rng.nextBelow(3));
        a.backendWorkerEnd = t += hop(rng);
        a.backendNicDeparture = t += hop(rng);
        a.routerReturn = t += hop(rng);
    }
    a.workerEnd = t += hop(rng);
    a.nicDeparture = t += hop(rng);
    a.clientNicArrival = t += hop(rng);
    a.clientReceive = t += hop(rng);
    return a;
}

/** An attempt that was sent at @p at and never answered. */
obs::AttemptSpan
lostAttempt(Rng &rng, SimTime at, std::int32_t backend)
{
    obs::AttemptSpan a;
    a.backendId = backend;
    a.triggerAt = at;
    a.clientSend = at + hop(rng);
    a.nicArrival = a.clientSend + hop(rng);
    return a;
}

/**
 * One random span: a single attempt, a retry chain (some primaries
 * balancer-dropped), a winning hedge, or a chain past the retention
 * cap; about one in ten is made incomplete.
 */
void
pushRandomSpan(obs::SpanLog &log, Rng &rng, std::uint64_t logical)
{
    const bool cluster = rng.nextBelow(4) != 0;
    const auto backend = [&rng, cluster] {
        return cluster ? static_cast<std::int32_t>(rng.nextBelow(4)) : -1;
    };
    obs::SpanTrace s;
    s.logicalSeqId = logical;
    s.clientIndex = rng.nextBelow(3);
    s.intendedSend = 1'000'000 * static_cast<SimTime>(1 + rng.nextBelow(50));
    std::vector<obs::AttemptSpan> attempts;
    SimTime at = s.intendedSend + hop(rng);
    const std::uint64_t shape = rng.nextBelow(8);
    if (shape <= 3) {
        attempts.push_back(wireAttempt(rng, at, cluster, backend()));
    } else if (shape <= 5 || shape == 7) {
        // Retry chain; shape 7 runs past the retention cap.
        const std::uint32_t failed =
            shape == 7 ? 11 : 1 + static_cast<std::uint32_t>(rng.nextBelow(3));
        for (std::uint32_t i = 0; i < failed; ++i) {
            obs::AttemptSpan p = lostAttempt(rng, at, backend());
            p.attempt = i;
            p.cause = i == 0 ? obs::AttemptCause::Scheduled
                             : obs::AttemptCause::Retry;
            p.lbDropped = rng.nextBelow(4) == 0;
            p.timeoutAt = p.clientSend + 3'000 + hop(rng);
            at = p.timeoutAt + hop(rng);
            attempts.push_back(p);
        }
        obs::AttemptSpan w = wireAttempt(rng, at, cluster, backend());
        w.attempt = failed;
        w.cause = obs::AttemptCause::Retry;
        attempts.push_back(w);
        if (attempts.size() > obs::kMaxSpanAttempts) {
            // The client keeps the first seven and puts the winner last.
            attempts.erase(attempts.begin() + obs::kMaxSpanAttempts - 1,
                           attempts.end() - 1);
        }
    } else {
        obs::AttemptSpan p = lostAttempt(rng, at, backend());
        obs::AttemptSpan h =
            wireAttempt(rng, p.clientSend + 1'000 + hop(rng), cluster,
                        backend());
        h.attempt = 1;
        h.cause = obs::AttemptCause::Hedge;
        h.hedged = true;
        attempts = {p, h};
    }
    for (std::size_t i = 0; i < attempts.size(); ++i)
        attempts[i].seqId = 1000 * logical + i;

    s.stored = static_cast<std::uint32_t>(attempts.size());
    s.winner = static_cast<std::int32_t>(attempts.size() - 1);
    s.attemptCount = shape == 7 ? 12 : s.stored;
    obs::AttemptSpan &w = attempts.back();
    w.won = true;
    s.clientReceive = w.clientReceive;
    switch (rng.nextBelow(20)) {
      case 0:
        w.won = false;
        break;
      case 1:
        w.workerEnd = kNoTime;
        break;
      default:
        break;
    }
    s.winning = w;
    log.push({s, attempts.data()});
}

obs::SpanLog
randomSpans(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    obs::SpanLog log;
    for (std::size_t i = 0; i < n; ++i)
        pushRandomSpan(log, rng, i);
    return log;
}

const std::vector<double> kTaus = {0.5, 0.99, 0.01, 0.25, 0.9,
                                   0.95, 0.999, 0.3333};

TEST(ProvenanceReferenceTest, RandomSpanSetsMatchBitForBit)
{
    // Sizes put the band edges on and off integer ranks, so both the
    // floor and the ceil round somewhere.
    const std::size_t sizes[] = {1, 2, 3, 7, 20, 21, 101, 400, 1001};
    std::size_t multi = 0, incomplete = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        for (std::size_t n : sizes) {
            SCOPED_TRACE(testing::Message() << "seed " << seed << ", n "
                                            << n);
            const obs::SpanLog spans = randomSpans(seed * 7919 + n, n);
            multi += spans.loserCount();
            if (referenceDecomposeAll(spans).empty()) {
                EXPECT_THROW(tailProvenance(spans, kTaus), NumericalError);
                continue;
            }
            const ProvenanceReport got = tailProvenance(spans, kTaus);
            incomplete += got.totalSpans - got.decomposed;
            expectSameReport(got, referenceTailProvenance(spans, kTaus));
            expectSameReport(
                decompose(spans, obs::Grouping::Segment, kTaus),
                referenceDecomposeSegments(spans, kTaus));
        }
    }
    // The generator really exercised losers and incomplete spans.
    EXPECT_GT(multi, 100u);
    EXPECT_GT(incomplete, 10u);
}

TEST(ProvenanceReferenceTest, EqualLatenciesKeepCompletionOrder)
{
    // Every span has the same end-to-end latency but its own backend
    // and queue/service split: the band's contents, and so every sum,
    // depend only on the tie rule.
    obs::SpanLog spans;
    for (std::uint64_t i = 0; i < 200; ++i) {
        obs::AttemptSpan a;
        a.won = true;
        a.backendId = static_cast<std::int32_t>(i % 7);
        a.triggerAt = 1'000;
        a.clientSend = 1'500;
        a.nicArrival = 2'500;
        a.workerStart = 3'000;
        a.lbArrival = 3'500;
        a.lbDispatch = 4'000;
        a.backendNicArrival = 4'500;
        a.backendWorkerStart = 4'500 + 1'337 * static_cast<SimTime>(i % 9);
        a.backendWorkerEnd = 16'000;
        a.backendNicDeparture = 16'500;
        a.routerReturn = 17'000;
        a.workerEnd = 17'500;
        a.nicDeparture = 18'000;
        a.clientNicArrival = 19'500;
        a.clientReceive = 20'000;
        obs::SpanTrace s;
        s.logicalSeqId = i;
        s.intendedSend = 1'000;
        s.clientReceive = a.clientReceive;
        s.attemptCount = s.stored = 1;
        s.winner = 0;
        s.winning = a;
        spans.push({s, nullptr});
    }
    expectSameReport(tailProvenance(spans, kTaus),
                     referenceTailProvenance(spans, kTaus));
    expectSameReport(decompose(spans, obs::Grouping::Segment, kTaus),
                     referenceDecomposeSegments(spans, kTaus));
}

} // namespace
} // namespace analysis
} // namespace treadmill
