/** @file Property sweep over fault plans x resilience policies x
 *  balancer policies, plus a classic-path cell: every exported span
 *  must be structurally complete and monotone, its critical path and
 *  each grouping of it must telescope to the end-to-end latency at
 *  integer-nanosecond exactness, its eight rows must equal the winning
 *  attempt's stamp differences, and its Fig 3 columns must be sums of
 *  those rows. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "drive/repeat.h"
#include "fault/plan.h"
#include "obs/span.h"

namespace treadmill {
namespace core {
namespace {

fault::FaultPlan
backendStallPlan()
{
    fault::FaultPlan plan;
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::ServerStall;
    ev.backend = 2;
    ev.start = milliseconds(5);
    ev.duration = milliseconds(2);
    ev.period = milliseconds(15);
    ev.repeatCount = 10;
    plan.events.push_back(ev);
    return plan;
}

/** Every link drops 5% of its packets from 5 ms to 45 ms. */
fault::FaultPlan
linkLossPlan()
{
    fault::FaultPlan plan;
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::LinkLoss;
    ev.start = milliseconds(5);
    ev.duration = milliseconds(40);
    ev.lossProbability = 0.05;
    plan.events.push_back(ev);
    return plan;
}

ResiliencePolicy
timeoutRetry()
{
    ResiliencePolicy r;
    r.enabled = true;
    r.timeoutUs = 3'000.0;
    r.maxRetries = 2;
    r.backoffBaseUs = 200.0;
    return r;
}

ResiliencePolicy
hedgeAndRetry()
{
    ResiliencePolicy r = timeoutRetry();
    r.hedge = true;
    r.hedgeDelayUs = 1'500.0;
    return r;
}

ExperimentParams
sweepParams(const fault::FaultPlan &plan, const ResiliencePolicy &res,
            lb::PolicyKind policy, std::uint64_t seed)
{
    ExperimentParams p;
    p.kind = WorkloadKind::Mcrouter;
    p.targetUtilization = 0.4;
    p.collector.warmUpSamples = 50;
    p.collector.calibrationSamples = 50;
    p.collector.measurementSamples = 400;
    p.cluster.backends = 4;
    p.cluster.replication = 2;
    p.cluster.policy = policy;
    p.faultPlan = plan;
    p.resilience = res;
    p.trace.enabled = true;
    p.seed = seed;
    p.deadline = seconds(5);
    return p;
}

/** The classic cell: Memcached, no backend tier, lossy links, and
 *  retries, so retry winners cross the classic wire path. */
ExperimentParams
classicLossParams(std::uint64_t seed)
{
    ExperimentParams p =
        sweepParams(linkLossPlan(), timeoutRetry(), lb::PolicyKind::Fcfs,
                    seed);
    p.kind = WorkloadKind::Memcached;
    p.cluster.backends = 0;
    return p;
}

std::size_t
multiAttemptSpans(const ExperimentResult &result)
{
    std::size_t multi = 0;
    for (std::size_t k = 0; k < result.spans.size(); ++k)
        multi += result.spans[k].trace.stored > 1 ? 1 : 0;
    return multi;
}

/** The property every cell must satisfy. */
void
checkSpans(const ExperimentResult &result, const std::string &label)
{
    ASSERT_FALSE(result.spans.empty()) << label;
    for (std::size_t k = 0; k < result.spans.size(); ++k) {
        const obs::SpanView span = result.spans[k];
        ASSERT_TRUE(obs::spanComplete(span)) << label;
        std::uint32_t winners = 0;
        for (std::uint32_t i = 0; i < span.trace.stored; ++i) {
            EXPECT_TRUE(obs::attemptMonotonic(span.attempt(i)))
                << label << " attempt " << i;
            winners += span.attempt(i).won ? 1 : 0;
        }
        EXPECT_EQ(winners, 1u) << label;

        obs::CriticalPath path;
        ASSERT_TRUE(obs::extractCriticalPath(span, path)) << label;
        // Exact integer-nanosecond telescoping: no epsilon.
        EXPECT_EQ(path.totalNs(),
                  span.trace.clientReceive - span.trace.intendedSend)
            << label;
        // Every grouping's columns telescope to the same total.
        for (obs::Grouping grouping :
             {obs::Grouping::Segment, obs::Grouping::Row,
              obs::Grouping::Fig3}) {
            SimDuration sum = 0;
            for (SimDuration ns :
                 obs::columnsNs(path, span.trace.winner, grouping))
                sum += ns;
            EXPECT_EQ(sum,
                      span.trace.clientReceive - span.trace.intendedSend)
                << label << " grouping "
                << static_cast<int>(grouping);
        }

        // The eight rows are the winning attempt's stamp differences,
        // so a mis-grouped SegmentKind moves time between rows.
        const obs::AttemptSpan &w = span.trace.winning;
        const std::array<SimDuration, 8> want = {
            w.triggerAt - span.trace.intendedSend,
            w.clientSend - w.triggerAt,
            w.nicArrival - w.clientSend,
            w.workerStart - w.nicArrival,
            w.workerEnd - w.workerStart,
            w.nicDeparture - w.workerEnd,
            w.clientNicArrival - w.nicDeparture,
            w.clientReceive - w.clientNicArrival};
        const obs::Columns rows =
            obs::columnsNs(path, span.trace.winner, obs::Grouping::Row);
        ASSERT_EQ(rows.count, want.size()) << label;
        EXPECT_TRUE(std::equal(want.begin(), want.end(), rows.begin()))
            << label << " logical " << span.trace.logicalSeqId;

        // Fig 3 nests in the rows: server = server queue + service +
        // server nic, network = net request + net response, client =
        // pre-win wait + client queue + client deliver.
        const obs::Columns fig3 =
            obs::columnsNs(path, span.trace.winner, obs::Grouping::Fig3);
        const auto &r = rows.ns;
        ASSERT_EQ(fig3.count, 3u) << label;
        EXPECT_EQ(fig3.ns[0], r[3] + r[4] + r[5]) << label;
        EXPECT_EQ(fig3.ns[1], r[2] + r[6]) << label;
        EXPECT_EQ(fig3.ns[2], r[0] + r[1] + r[7]) << label;
    }
}

TEST(SpanSweepTest, EverySpanCompleteMonotoneAndExact)
{
    const std::vector<std::pair<std::string, fault::FaultPlan>> plans =
        {{"healthy", {}}, {"stall2", backendStallPlan()}};
    const std::vector<std::pair<std::string, ResiliencePolicy>>
        policies = {{"plain", {}},
                    {"retry", timeoutRetry()},
                    {"hedge+retry", hedgeAndRetry()}};
    const std::vector<std::pair<std::string, lb::PolicyKind>> lbs = {
        {"fcfs", lb::PolicyKind::Fcfs},
        {"p2c", lb::PolicyKind::PowerOfTwo}};

    std::uint64_t seed = 101;
    std::vector<ExperimentParams> runs;
    std::vector<std::string> labels;
    for (const auto &[planName, plan] : plans)
        for (const auto &[resName, res] : policies)
            for (const auto &[lbName, lbPolicy] : lbs) {
                runs.push_back(
                    sweepParams(plan, res, lbPolicy, seed));
                seed += 13;
                labels.push_back(planName + "/" + resName + "/" +
                                 lbName);
            }
    runs.push_back(classicLossParams(seed));
    labels.push_back("classic/linkloss/retry");

    drive::Repetitions sweep;
    sweep.paramsOf = [&runs](std::size_t i) { return runs[i]; };
    sweep.maxRuns = runs.size();
    std::size_t classicMultiAttempt = 0;
    const std::vector<double> p99s = drive::repeatRuns(
        sweep, [&](std::size_t i, const ExperimentParams &,
                   const ExperimentResult &result) {
            checkSpans(result, labels[i]);
            if (i + 1 == runs.size())
                classicMultiAttempt = multiAttemptSpans(result);
        });
    EXPECT_EQ(p99s.size(), runs.size());
    // The classic cell must exercise retry winners, or its rows prove
    // nothing about the pre-win grouping.
    EXPECT_GT(classicMultiAttempt, 0u);
}

TEST(SpanSweepTest, FaultySweepProducesMultiAttemptSpans)
{
    // The stalled-shard + retry + hedge cell must actually exercise
    // the multi-attempt machinery, or the sweep proves nothing.
    const auto result = runExperiment(sweepParams(
        backendStallPlan(), hedgeAndRetry(), lb::PolicyKind::Fcfs,
        4242));
    const std::size_t multi = multiAttemptSpans(result);
    EXPECT_GT(multi, 0u);
    EXPECT_GE(result.spans.loserCount(), multi);
}

TEST(SpanSweepTest, RetentionOverflowKeepsTheLateWinner)
{
    // A 6 ms crash drops every attempt sent into it, so a request it
    // catches retries well past the retention cap and is answered by
    // an attempt that was never held: the span must evict its last
    // held loser for the winner and still telescope.
    // Light load, so the retry burst at restart drains instead of
    // feeding a retry storm.
    ExperimentParams p;
    p.targetUtilization = 0.1;
    p.collector.warmUpSamples = 50;
    p.collector.calibrationSamples = 50;
    p.collector.measurementSamples = 400;
    p.trace.enabled = true;
    p.seed = 17;
    p.deadline = seconds(1);
    p.resilience.enabled = true;
    p.resilience.timeoutUs = 300.0;
    p.resilience.maxRetries = 40;
    p.resilience.backoffBaseUs = 20.0;
    p.resilience.backoffCapUs = 40.0;
    fault::FaultEvent crash;
    crash.kind = fault::FaultKind::ServerCrash;
    crash.start = milliseconds(20);
    crash.duration = milliseconds(6);
    p.faultPlan.events.push_back(crash);
    const auto result = runExperiment(p);
    checkSpans(result, "crash");

    std::size_t evicted = 0;
    for (std::size_t k = 0; k < result.spans.size(); ++k) {
        const obs::SpanView span = result.spans[k];
        if (span.trace.winning.attempt < obs::kMaxSpanAttempts)
            continue; // The winner was one of the held attempts.
        ++evicted;
        EXPECT_GT(span.trace.attemptCount, obs::kMaxSpanAttempts);
        EXPECT_EQ(span.trace.stored, obs::kMaxSpanAttempts);
        EXPECT_EQ(span.trace.winner,
                  static_cast<std::int32_t>(obs::kMaxSpanAttempts - 1));
        // The losers kept are the first sends, in order.
        for (std::uint32_t i = 0; i + 1 < span.trace.stored; ++i)
            EXPECT_EQ(span.attempt(i).attempt, i);
    }
    EXPECT_GT(evicted, 0u);
}

TEST(SpanSweepTest, ClassicPathSpansAlsoTelescope)
{
    // backends == 0: the classic single-server wire path.
    ExperimentParams p;
    p.collector.warmUpSamples = 50;
    p.collector.calibrationSamples = 50;
    p.collector.measurementSamples = 400;
    p.trace.enabled = true;
    p.seed = 7;
    const auto result = runExperiment(p);
    checkSpans(result, "classic");
    // Classic spans never carry cluster stamps.
    for (std::size_t k = 0; k < result.spans.size(); ++k)
        EXPECT_EQ(result.spans[k].trace.winning.lbArrival, kNoTime);
}

} // namespace
} // namespace core
} // namespace treadmill
