#include "core/collector.h"

#include <algorithm>

#include "stats/summary.h"
#include "util/error.h"
#include "util/logging.h"

namespace treadmill {
namespace core {

SampleCollector::SampleCollector(const Params &params_, const Rng &rng)
    : params(params_),
      reservoir(kReservoirCapacity, rng)
{
    if (params.measurementSamples == 0)
        throw ConfigError("measurement phase needs at least one sample");
    if (params.histogram == HistogramKind::Static) {
        staticHist = std::make_unique<stats::StaticHistogram>(
            params.staticLo, params.staticHi, params.staticBins);
        currentPhase = params.warmUpSamples == 0 ? Phase::Measurement
                                                 : Phase::WarmUp;
    } else if (params.histogram == HistogramKind::Raw) {
        raw.reserve(params.measurementSamples);
        currentPhase = params.warmUpSamples == 0 ? Phase::Measurement
                                                 : Phase::WarmUp;
    } else {
        calibration.reserve(params.calibrationSamples);
        currentPhase = params.warmUpSamples == 0 ? Phase::Calibration
                                                 : Phase::WarmUp;
    }
}

void
SampleCollector::add(double latencyUs)
{
    switch (currentPhase) {
      case Phase::WarmUp:
        if (++warmUpCount >= params.warmUpSamples) {
            currentPhase = params.histogram == HistogramKind::Adaptive
                               ? Phase::Calibration
                               : Phase::Measurement;
        }
        return;

      case Phase::Calibration:
        calibration.push_back(latencyUs);
        if (calibration.size() >= params.calibrationSamples) {
            // tmlint:allow-next-line(hot-path-transitive): one-shot calibration->measurement transition, not steady state
            adaptive = std::make_unique<stats::AdaptiveHistogram>(
                calibration, params.adaptive);
            // Calibration samples seed the histogram but do not count
            // toward the measurement target.
            calibration.clear();
            calibration.shrink_to_fit();
            currentPhase = Phase::Measurement;
        }
        return;

      case Phase::Measurement:
        switch (params.histogram) {
          case HistogramKind::Adaptive:
            adaptive->add(latencyUs);
            break;
          case HistogramKind::Static:
            staticHist->add(latencyUs);
            break;
          case HistogramKind::Raw:
            raw.push_back(latencyUs);
            break;
        }
        reservoir.add(latencyUs);
        ++measuredCount;
        if (params.trajectoryEvery != 0 &&
            measuredCount % params.trajectoryEvery == 0) {
            trajectoryPoints.emplace_back(
                measuredCount, quantile(params.trajectoryQuantile));
        }
        if (measuredCount >= params.measurementSamples)
            currentPhase = Phase::Done;
        return;

      case Phase::Done:
        // Late responses after the target are ignored.
        return;
    }
}

double
SampleCollector::quantile(double q) const
{
    switch (params.histogram) {
      case HistogramKind::Adaptive:
        if (!adaptive || adaptive->count() == 0)
            // tmlint:allow-next-line(hot-path-transitive): guards a misconfigured run before any sample exists, never taken per-request
            throw NumericalError("no measurement samples collected");
        return adaptive->quantile(q);
      case HistogramKind::Static:
        return staticHist->quantile(q);
      case HistogramKind::Raw:
        return stats::quantile(raw, q);
    }
    panic("unreachable histogram kind");
}

double
SampleCollector::mean() const
{
    switch (params.histogram) {
      case HistogramKind::Adaptive:
        return adaptive ? adaptive->mean() : 0.0;
      case HistogramKind::Static:
        return stats::mean(rawSamples());
      case HistogramKind::Raw:
        return stats::mean(raw);
    }
    panic("unreachable histogram kind");
}

const std::vector<double> &
SampleCollector::rawSamples() const
{
    return reservoir.samples();
}

const stats::AdaptiveHistogram *
SampleCollector::adaptiveHistogram() const
{
    return adaptive.get();
}

const stats::StaticHistogram *
SampleCollector::staticHistogram() const
{
    return staticHist.get();
}

} // namespace core
} // namespace treadmill
