/**
 * @file
 * Request-tracing demo: run one traced experiment, export the span
 * lanes as Chrome trace-event JSON (open in Perfetto /
 * chrome://tracing), the per-request decomposition CSV, and the
 * metrics-registry snapshot, then print the eight-row latency
 * decomposition table read from the spans' critical paths.
 *
 * Run: ./build/examples/trace_demo [output-dir]
 * Writes treadmill_trace.json, treadmill_decomposition.csv, and
 * treadmill_metrics.json into output-dir (default ".").
 *
 * Exits nonzero if any span fails validation (no complete critical
 * path, or row sums off from end-to-end by >= 0.1 us), so CI can use
 * it as a smoke test.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "analysis/export.h"
#include "analysis/provenance.h"
#include "analysis/report.h"
#include "core/experiment.h"
#include "obs/span.h"

using namespace treadmill;

namespace {

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    out << content;
    return out.good();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : ".";

    core::ExperimentParams params;
    params.targetUtilization = 0.6;
    params.config.dvfs = hw::DvfsGovernor::Performance;
    params.collector.warmUpSamples = 300;
    params.collector.calibrationSamples = 300;
    params.collector.measurementSamples = 3000;
    params.seed = 7;
    params.trace.enabled = true;
    params.trace.sampleEvery = 8; // keep the JSON Perfetto-sized

    std::printf("Running one traced Memcached experiment "
                "(every 8th request sampled)...\n");
    const auto result = core::runExperiment(params);
    std::printf("  achieved %.0f RPS at %.0f%% server utilization, "
                "%zu requests traced\n",
                result.achievedRps, 100.0 * result.serverUtilization,
                result.spans.size());

    if (result.spans.empty()) {
        std::fprintf(stderr, "no spans recorded\n");
        return 1;
    }

    // Self-validate before exporting: every span must yield a complete
    // critical path, and its eight rows, summed as doubles the way the
    // CSV's component_sum_us is, must match the end-to-end latency.
    double worstUs = 0.0;
    obs::CriticalPath path;
    for (std::size_t k = 0; k < result.spans.size(); ++k) {
        const obs::SpanView span = result.spans[k];
        if (!obs::extractCriticalPath(span, path)) {
            std::fprintf(stderr,
                         "span %llu has no complete critical path\n",
                         static_cast<unsigned long long>(
                             span.trace.logicalSeqId));
            return 1;
        }
        double sumUs = 0.0;
        for (SimDuration ns :
             obs::columnsNs(path, span.trace.winner, obs::Grouping::Row))
            sumUs += toMicros(ns);
        worstUs = std::max(worstUs,
                           std::fabs(sumUs - span.trace.endToEndUs()));
    }
    if (worstUs >= 0.1) {
        std::fprintf(stderr,
                     "decomposition error %.6f us exceeds 0.1 us\n",
                     worstUs);
        return 1;
    }
    std::printf("  validated %zu timelines (max decomposition error "
                "%.3g us)\n",
                result.spans.size(), worstUs);

    const std::string tracePath = dir + "/treadmill_trace.json";
    const std::string csvPath = dir + "/treadmill_decomposition.csv";
    const std::string metricsPath = dir + "/treadmill_metrics.json";
    if (!writeFile(tracePath, obs::chromeSpanJson(result.spans)) ||
        !writeFile(csvPath, obs::decompositionCsv(result.spans)) ||
        !writeFile(metricsPath, result.metrics.dumpPretty() + "\n"))
        return 1;
    std::printf("\nWrote %s (load it in https://ui.perfetto.dev or"
                " chrome://tracing),\n      %s, and %s\n\n",
                tracePath.c_str(), csvPath.c_str(),
                metricsPath.c_str());

    // The measured attribution: which component owns the tail.
    const auto report = analysis::decompose(result.spans, obs::Grouping::Row);
    std::printf("%s\n",
                analysis::renderDecompositionTable(report).c_str());

    std::printf("Decomposition JSON:\n%s\n",
                analysis::toJson(report).dumpPretty().c_str());
    return 0;
}
