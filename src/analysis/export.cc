#include "analysis/export.h"

#include "analysis/provenance.h"
#include "stats/summary.h"

namespace treadmill {
namespace analysis {

namespace {

const double kExportQuantiles[] = {0.5, 0.9, 0.95, 0.99, 0.999};

/** Quantile summary of a raw sample vector. */
json::Value
quantileSummary(const std::vector<double> &samples)
{
    json::Object obj;
    obj["count"] =
        json::Value(static_cast<std::int64_t>(samples.size()));
    if (!samples.empty()) {
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        json::Object qs;
        for (double q : kExportQuantiles) {
            qs["p" + std::to_string(
                         static_cast<int>(q * 1000.0))] =
                json::Value(stats::quantileSorted(sorted, q));
        }
        obj["quantiles_us"] = json::Value(std::move(qs));
        obj["mean_us"] = json::Value(stats::mean(samples));
    }
    return json::Value(std::move(obj));
}

} // namespace

json::Value
toJson(const core::ExperimentResult &result)
{
    json::Object doc;
    doc["target_rps"] = json::Value(result.targetRps);
    doc["achieved_rps"] = json::Value(result.achievedRps);
    doc["server_utilization"] = json::Value(result.serverUtilization);
    doc["simulated_seconds"] =
        json::Value(toSeconds(result.simulatedTime));
    doc["frequency_transitions"] = json::Value(
        static_cast<std::int64_t>(result.frequencyTransitions));

    json::Object aggregated;
    for (double q : kExportQuantiles) {
        aggregated["p" + std::to_string(static_cast<int>(q * 1000.0))] =
            json::Value(result.aggregatedQuantile(
                q, core::AggregationKind::PerInstance));
    }
    doc["aggregated_quantiles_us"] = json::Value(std::move(aggregated));

    doc["ground_truth"] = quantileSummary(result.groundTruthUs);

    // Capture health (the tcpdump analogue's own diagnostics).
    json::Object capture;
    capture["unmatched_responses"] = json::Value(
        static_cast<std::int64_t>(result.captureUnmatchedResponses));
    capture["outstanding_at_end"] = json::Value(
        static_cast<std::int64_t>(result.captureOutstanding));
    doc["capture"] = json::Value(std::move(capture));
    doc["deadline_hit"] = json::Value(result.deadlineHit);

    // Measured per-component decomposition samples (Fig 3), grouped
    // from the critical path of every retained span.
    const Fig3Samples fig3 = fig3Samples(result.spans);
    json::Object components;
    components["server"] = quantileSummary(fig3.serverUs);
    components["network"] = quantileSummary(fig3.networkUs);
    components["client"] = quantileSummary(fig3.clientUs);
    doc["components"] = json::Value(std::move(components));

    // The run's full metrics-registry snapshot (counters, gauges,
    // histograms from every component).
    if (!result.metrics.isNull())
        doc["metrics"] = result.metrics;

    json::Array instances;
    for (const auto &inst : result.instances) {
        json::Object i;
        i["measured"] =
            json::Value(static_cast<std::int64_t>(inst.measured));
        i["reached_target"] = json::Value(inst.reachedTarget);
        i["client_cpu_utilization"] =
            json::Value(inst.cpuUtilization);
        i["remote_rack"] = json::Value(inst.remoteRack);
        json::Object qs;
        for (const auto &[q, v] : inst.quantiles)
            qs["p" + std::to_string(static_cast<int>(q * 1000.0))] =
                json::Value(v);
        i["quantiles_us"] = json::Value(std::move(qs));
        instances.push_back(json::Value(std::move(i)));
    }
    doc["instances"] = json::Value(std::move(instances));
    return json::Value(std::move(doc));
}

json::Value
toJson(const std::vector<QuantileModel> &models)
{
    json::Array out;
    for (const auto &model : models) {
        json::Object m;
        m["tau"] = json::Value(model.tau);
        m["pseudo_r2"] = json::Value(model.pseudoR2);
        json::Array terms;
        for (const auto &term : model.terms) {
            json::Object t;
            t["name"] = json::Value(term.name);
            t["estimate_us"] = json::Value(term.estimate);
            t["std_err_us"] = json::Value(term.standardError);
            t["p_value"] = json::Value(term.pValue);
            terms.push_back(json::Value(std::move(t)));
        }
        m["terms"] = json::Value(std::move(terms));
        out.push_back(json::Value(std::move(m)));
    }
    return json::Value(std::move(out));
}

json::Value
toJson(const AttributionResult &attribution)
{
    json::Object doc;
    doc["observations"] = json::Value(
        static_cast<std::int64_t>(attribution.observations.size()));
    doc["models"] = toJson(attribution.models);
    return json::Value(std::move(doc));
}

json::Value
toJson(const DecompositionReport &report)
{
    json::Object doc;
    doc["requests"] = json::Value(
        static_cast<std::int64_t>(report.requestCount));

    json::Array quantiles;
    for (double q : report.quantiles)
        quantiles.push_back(json::Value(q));
    doc["quantiles"] = json::Value(std::move(quantiles));

    json::Array components;
    for (const auto &component : report.components) {
        json::Object c;
        c["name"] = json::Value(component.name);
        c["mean_us"] = json::Value(component.meanUs);
        c["mean_share"] = json::Value(component.meanShare);
        json::Array qs;
        for (double v : component.quantileUs)
            qs.push_back(json::Value(v));
        c["quantiles_us"] = json::Value(std::move(qs));
        components.push_back(json::Value(std::move(c)));
    }
    doc["components"] = json::Value(std::move(components));

    json::Object endToEnd;
    endToEnd["mean_us"] = json::Value(report.endToEndMeanUs);
    json::Array qs;
    for (double v : report.endToEndQuantileUs)
        qs.push_back(json::Value(v));
    endToEnd["quantiles_us"] = json::Value(std::move(qs));
    doc["end_to_end"] = json::Value(std::move(endToEnd));
    return json::Value(std::move(doc));
}

json::Value
toJson(const ImprovementResult &result)
{
    json::Object doc;
    doc["tau"] = json::Value(result.tau);
    doc["recommended_config"] =
        json::Value(result.recommended.label());
    json::Object before;
    before["mean_us"] = json::Value(result.before.mean);
    before["stddev_us"] = json::Value(result.before.stddev);
    before["runs"] = json::Value(static_cast<std::int64_t>(
        result.before.perRunQuantileUs.size()));
    json::Object after;
    after["mean_us"] = json::Value(result.after.mean);
    after["stddev_us"] = json::Value(result.after.stddev);
    after["runs"] = json::Value(static_cast<std::int64_t>(
        result.after.perRunQuantileUs.size()));
    doc["before"] = json::Value(std::move(before));
    doc["after"] = json::Value(std::move(after));
    doc["latency_reduction"] = json::Value(result.latencyReduction());
    doc["variability_reduction"] =
        json::Value(result.variabilityReduction());
    return json::Value(std::move(doc));
}

} // namespace analysis
} // namespace treadmill
