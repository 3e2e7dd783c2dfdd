#include "fault/plan.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "util/error.h"
#include "util/strings.h"

namespace treadmill {
namespace fault {

namespace {

const std::vector<std::pair<FaultKind, std::string>> &
kindNames()
{
    static const std::vector<std::pair<FaultKind, std::string>> names{
        {FaultKind::LinkLoss, "link_loss"},
        {FaultKind::LinkDegrade, "link_degrade"},
        {FaultKind::ServerStall, "server_stall"},
        {FaultKind::ServerCrash, "server_crash"},
        {FaultKind::NicInterruptStorm, "nic_storm"},
    };
    return names;
}

/** Milliseconds (JSON) -> integer nanoseconds (SimTime). */
SimDuration
fromMs(double ms)
{
    if (ms < 0.0)
        throw ConfigError("fault times must be non-negative");
    return milliseconds(ms);
}

double
toMs(SimDuration d)
{
    return static_cast<double>(d) / 1e6;
}

} // namespace

const std::string &
faultKindName(FaultKind kind)
{
    for (const auto &entry : kindNames()) {
        if (entry.first == kind)
            return entry.second;
    }
    throw ConfigError("unknown fault kind");
}

FaultKind
faultKindFromName(const std::string &name)
{
    for (const auto &entry : kindNames()) {
        if (entry.second == name)
            return entry.first;
    }
    throw ConfigError(strprintf("unknown fault kind \"%s\"",
                                name.c_str()));
}

FaultPlan
FaultPlan::fromJson(const json::Value &doc)
{
    FaultPlan plan;
    if (!doc.contains("events")) {
        plan.validate();
        return plan;
    }
    for (const json::Value &entry : doc.at("events").asArray()) {
        FaultEvent ev;
        ev.kind = faultKindFromName(entry.at("kind").asString());
        ev.start = fromMs(entry.numberOr("start_ms", 0.0));
        ev.duration = fromMs(entry.numberOr("duration_ms", 0.0));
        ev.target = entry.stringOr("target", "");
        ev.backend = static_cast<int>(entry.intOr("backend", -1));
        ev.period = fromMs(entry.numberOr("period_ms", 0.0));
        ev.repeatCount = static_cast<std::uint32_t>(
            entry.intOr("repeat", 1));
        ev.lossProbability = entry.numberOr("loss_probability", 0.0);
        ev.bandwidthFactor = entry.numberOr("bandwidth_factor", 1.0);
        ev.extraLatency = static_cast<SimDuration>(
            microseconds(entry.numberOr("extra_latency_us", 0.0)));
        ev.warmup = fromMs(entry.numberOr("warmup_ms", 0.0));
        ev.warmupPenalty = static_cast<SimDuration>(
            microseconds(entry.numberOr("warmup_penalty_us", 0.0)));
        ev.irqCostFactor = entry.numberOr("irq_cost_factor", 1.0);
        plan.events.push_back(std::move(ev));
    }
    plan.validate();
    return plan;
}

json::Value
FaultPlan::toJson() const
{
    json::Array events_;
    for (const FaultEvent &ev : events) {
        json::Object entry;
        entry["kind"] = json::Value(faultKindName(ev.kind));
        entry["start_ms"] = json::Value(toMs(ev.start));
        entry["duration_ms"] = json::Value(toMs(ev.duration));
        if (!ev.target.empty())
            entry["target"] = json::Value(ev.target);
        if (ev.backend >= 0)
            entry["backend"] =
                json::Value(static_cast<std::int64_t>(ev.backend));
        if (ev.repeatCount > 1) {
            entry["period_ms"] = json::Value(toMs(ev.period));
            entry["repeat"] = json::Value(
                static_cast<std::int64_t>(ev.repeatCount));
        }
        switch (ev.kind) {
          case FaultKind::LinkLoss:
            entry["loss_probability"] = json::Value(ev.lossProbability);
            break;
          case FaultKind::LinkDegrade:
            entry["bandwidth_factor"] = json::Value(ev.bandwidthFactor);
            entry["extra_latency_us"] =
                json::Value(toMicros(ev.extraLatency));
            break;
          case FaultKind::ServerStall:
            break;
          case FaultKind::ServerCrash:
            entry["warmup_ms"] = json::Value(toMs(ev.warmup));
            entry["warmup_penalty_us"] =
                json::Value(toMicros(ev.warmupPenalty));
            break;
          case FaultKind::NicInterruptStorm:
            entry["irq_cost_factor"] = json::Value(ev.irqCostFactor);
            break;
        }
        events_.push_back(json::Value(std::move(entry)));
    }
    json::Object doc;
    doc["events"] = json::Value(std::move(events_));
    return json::Value(std::move(doc));
}

void
FaultPlan::validate() const
{
    for (const FaultEvent &ev : events) {
        const std::string &kind = faultKindName(ev.kind);
        if (ev.duration == 0)
            throw ConfigError(kind + " fault needs a positive duration");
        if (ev.repeatCount == 0)
            throw ConfigError(kind + " fault repeat must be >= 1");
        if (ev.repeatCount > 1 && ev.period < ev.duration)
            throw ConfigError(
                kind + " fault period must cover its duration");
        if (ev.backend < -1)
            throw ConfigError(kind + " fault backend must be >= -1");
        if (ev.backend >= 0 && ev.kind != FaultKind::ServerStall &&
            ev.kind != FaultKind::ServerCrash &&
            ev.kind != FaultKind::NicInterruptStorm)
            throw ConfigError(
                kind + " fault does not take a backend target");
        switch (ev.kind) {
          case FaultKind::LinkLoss:
            if (ev.lossProbability < 0.0 || ev.lossProbability > 1.0)
                throw ConfigError(
                    "loss_probability must lie in [0, 1]");
            break;
          case FaultKind::LinkDegrade:
            if (!(ev.bandwidthFactor > 0.0))
                throw ConfigError("bandwidth_factor must be positive");
            break;
          case FaultKind::ServerStall:
            break;
          case FaultKind::ServerCrash:
            if (ev.warmup > 0 && ev.warmupPenalty == 0)
                throw ConfigError(
                    "server_crash warm-up needs a warmup_penalty_us");
            break;
          case FaultKind::NicInterruptStorm:
            if (!(ev.irqCostFactor >= 1.0))
                throw ConfigError("irq_cost_factor must be >= 1");
            break;
        }
    }

    // Overlapping windows of the same kind on the same target would
    // make the revert order ambiguous: reject them. The same kind on
    // two different backends never interferes, so the key includes
    // the backend.
    std::map<std::tuple<int, std::string, int>,
             std::vector<std::pair<SimTime, SimTime>>>
        windows;
    for (const FaultEvent &ev : events) {
        auto &list =
            windows[{static_cast<int>(ev.kind), ev.target, ev.backend}];
        for (std::uint32_t k = 0; k < ev.repeatCount; ++k) {
            const SimTime start = ev.start + k * ev.period;
            list.emplace_back(start, start + ev.duration);
        }
    }
    for (auto &entry : windows) {
        auto &list = entry.second;
        std::sort(list.begin(), list.end());
        for (std::size_t i = 1; i < list.size(); ++i) {
            if (list[i].first < list[i - 1].second) {
                throw ConfigError(strprintf(
                    "overlapping %s fault windows at %.3f ms",
                    faultKindName(static_cast<FaultKind>(
                                      std::get<0>(entry.first)))
                        .c_str(),
                    static_cast<double>(list[i].first) / 1e6));
            }
        }
    }
}

} // namespace fault
} // namespace treadmill
