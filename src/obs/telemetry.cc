#include "obs/telemetry.h"

#include <cmath>
#include <utility>

#include "util/error.h"
#include "util/strings.h"

namespace treadmill {
namespace obs {

TelemetrySampler::TelemetrySampler(const TelemetryConfig &config)
    : cfg(config)
{
    // A NaN slips past any ordered comparison, and a sub-nanosecond
    // period truncates to a zero tick, so test the period in ns.
    if (cfg.enabled && !(std::isfinite(cfg.periodUs) &&
                         cfg.periodUs * 1e3 >= 1.0))
        throw ConfigError(strprintf(
            "telemetry.periodUs must be finite and at least 1 ns "
            "(0.001 us), got %g",
            cfg.periodUs));
}

void
TelemetrySampler::addProbe(const std::string &name, Probe probe)
{
    if (!probe)
        throw ConfigError("telemetry probe needs a callable");
    if (!series_.at.empty())
        throw ConfigError(
            "telemetry probes must be registered before sampling");
    series_.probes.push_back(name);
    series_.values.emplace_back();
    probes.push_back(std::move(probe));
}

void
TelemetrySampler::sample(SimTime now)
{
    if (!cfg.enabled || full())
        return;
    series_.at.push_back(now);
    for (std::size_t p = 0; p < probes.size(); ++p)
        series_.values[p].push_back(probes[p]());
}

TelemetrySeries
TelemetrySampler::takeSeries()
{
    TelemetrySeries out = std::move(series_);
    series_ = TelemetrySeries{};
    series_.probes = out.probes; // Keep columns if sampling resumes.
    series_.values.resize(series_.probes.size());
    return out;
}

std::string
telemetryCsv(const TelemetrySeries &series)
{
    std::string out = "time_us";
    for (const std::string &probe : series.probes) {
        out += ',';
        out += probe;
    }
    out += '\n';
    for (std::size_t t = 0; t < series.at.size(); ++t) {
        out += strprintf("%.3f", toMicros(series.at[t]));
        for (std::size_t p = 0; p < series.values.size(); ++p)
            out += strprintf(",%.3f", series.values[p][t]);
        out += '\n';
    }
    return out;
}

void
appendChromeCounterEvents(json::Array &events,
                          const TelemetrySeries &series)
{
    if (series.at.empty())
        return;
    const std::int64_t telemetryPid = -2;
    json::Object meta;
    meta["name"] = json::Value("process_name");
    meta["ph"] = json::Value("M");
    meta["pid"] = json::Value(telemetryPid);
    json::Object metaArgs;
    metaArgs["name"] = json::Value("telemetry");
    meta["args"] = json::Value(std::move(metaArgs));
    events.push_back(json::Value(std::move(meta)));

    for (std::size_t t = 0; t < series.at.size(); ++t) {
        for (std::size_t p = 0; p < series.probes.size(); ++p) {
            json::Object ev;
            ev["name"] = json::Value(series.probes[p]);
            ev["cat"] = json::Value("telemetry");
            ev["ph"] = json::Value("C");
            ev["ts"] = json::Value(toMicros(series.at[t]));
            ev["pid"] = json::Value(telemetryPid);
            json::Object args;
            args["value"] = json::Value(series.values[p][t]);
            ev["args"] = json::Value(std::move(args));
            events.push_back(json::Value(std::move(ev)));
        }
    }
}

} // namespace obs
} // namespace treadmill
