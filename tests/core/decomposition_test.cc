/** @file Tests for per-operation and per-component latency views, both
 *  read from the spans of a fully traced run. */

#include <gtest/gtest.h>

#include "analysis/provenance.h"
#include "core/experiment.h"
#include "stats/summary.h"

namespace treadmill {
namespace core {
namespace {

ExperimentParams
mixedParams()
{
    ExperimentParams params;
    params.workload.getFraction = 0.7;
    params.workload.valueBytesMean = 400.0;
    params.workload.valueBytesSigma = 0.0;
    params.targetUtilization = 0.4;
    params.config.dvfs = hw::DvfsGovernor::Performance;
    params.collector.warmUpSamples = 100;
    params.collector.calibrationSamples = 100;
    params.collector.measurementSamples = 2500;
    params.seed = 6;
    params.trace.enabled = true;
    return params;
}

/** End-to-end latencies of the GET and SET spans (S II-B: request
 *  types with distinct characteristics must not be merged blindly). */
struct PerOp {
    std::vector<double> getUs;
    std::vector<double> setUs;
};

PerOp
perOp(const ExperimentResult &result)
{
    PerOp out;
    for (std::size_t k = 0; k < result.spans.size(); ++k) {
        const obs::SpanTrace &span = result.spans[k].trace;
        (span.isGet ? out.getUs : out.setUs).push_back(span.endToEndUs());
    }
    return out;
}

TEST(DecompositionTest, PerOpSamplesCoverAllResponses)
{
    const auto result = runExperiment(mixedParams());
    const PerOp ops = perOp(result);
    const analysis::ColumnSamples fig3 =
        analysis::columnSamples(result.spans, obs::Grouping::Fig3);
    // Every completion is traced and every span decomposes.
    EXPECT_EQ(ops.getUs.size() + ops.setUs.size(),
              fig3.endToEndUs.size());
    ASSERT_EQ(fig3.columnsUs.size(), 3u);
    for (const std::vector<double> &column : fig3.columnsUs)
        EXPECT_EQ(column.size(), fig3.endToEndUs.size());
    EXPECT_FALSE(ops.getUs.empty());
    EXPECT_FALSE(ops.setUs.empty());
}

TEST(DecompositionTest, MixRatioMatchesWorkload)
{
    const PerOp ops = perOp(runExperiment(mixedParams()));
    const double total =
        static_cast<double>(ops.getUs.size() + ops.setUs.size());
    EXPECT_NEAR(static_cast<double>(ops.getUs.size()) / total, 0.7, 0.03);
}

TEST(DecompositionTest, SetsAreSlowerThanGets)
{
    // SETs carry the payload and cost more worker cycles; with a
    // large fixed value size the medians must separate.
    const PerOp ops = perOp(runExperiment(mixedParams()));
    EXPECT_GT(stats::median(ops.setUs), stats::median(ops.getUs));
}

TEST(DecompositionTest, ComponentsSumToEndToEnd)
{
    // server + network + client group the eight rows of each span's
    // critical path, so per span they add up to its end-to-end
    // latency (exactly in integer ns: span_sweep_test).
    const auto result = runExperiment(mixedParams());
    const analysis::ColumnSamples fig3 =
        analysis::columnSamples(result.spans, obs::Grouping::Fig3);
    ASSERT_EQ(fig3.endToEndUs.size(), result.spans.size());
    for (std::size_t k = 0; k < result.spans.size(); ++k) {
        EXPECT_NEAR(fig3.columnsUs[0][k] + fig3.columnsUs[1][k] +
                        fig3.columnsUs[2][k],
                    result.spans[k].trace.endToEndUs(), 1e-9);
    }
}

} // namespace
} // namespace core
} // namespace treadmill
