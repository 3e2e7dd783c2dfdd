/**
 * @file
 * Three-phase latency sample collection (paper S III-A, "Statistical
 * aggregation").
 *
 * A Treadmill execution passes through warm-up (samples discarded),
 * calibration (raw samples establish the adaptive histogram's bounds),
 * and measurement (samples accumulate into the histogram, which
 * re-bins if the tail outgrows it). A reservoir keeps a bounded
 * uniform sub-sample of raw measurement values for the attribution
 * pipeline's 20k-sample draws.
 *
 * The collector can also be configured to model the flawed designs the
 * paper surveys: a static histogram that clamps the tail, or plain raw
 * collection.
 */

#ifndef TREADMILL_CORE_COLLECTOR_H_
#define TREADMILL_CORE_COLLECTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "stats/histogram.h"
#include "stats/reservoir.h"
#include "util/rng.h"

namespace treadmill {
namespace core {

/** How a load tester aggregates its latency samples. */
enum class HistogramKind {
    Adaptive, ///< Treadmill: calibrated bounds + re-binning.
    Static,   ///< Pitfall: fixed bounds, tail clamps.
    Raw       ///< Keep every sample (reference / small runs).
};

/** Collection phases. */
enum class Phase { WarmUp, Calibration, Measurement, Done };

/** Phase-aware latency sample sink for one load-tester instance. */
class SampleCollector
{
  public:
    /** Raw measurement values the reservoir keeps: the attribution
     *  pipeline draws 20k-sample sub-samples. */
    static constexpr std::size_t kReservoirCapacity = 20000;

    /** Sizing for each phase. */
    struct Params {
        std::uint64_t warmUpSamples = 500;
        std::uint64_t calibrationSamples = 500;
        std::uint64_t measurementSamples = 5000;
        HistogramKind histogram = HistogramKind::Adaptive;
        /** Bounds for the Static kind, microseconds. */
        double staticLo = 0.0;
        double staticHi = 1000.0;
        std::size_t staticBins = 1024;
        stats::AdaptiveHistogram::Params adaptive;
        /** Record a quantile-estimate trajectory every this many
         *  measurement samples (0 = off); used for the Fig 4
         *  convergence demonstration. */
        std::uint64_t trajectoryEvery = 0;
        double trajectoryQuantile = 0.99;
    };

    /**
     * @param params Phase sizing and aggregation kind.
     * @param rng Private stream for the reservoir.
     */
    SampleCollector(const Params &params, const Rng &rng);

    /** Record one latency sample (microseconds). */
    void add(double latencyUs);

    /** Current phase. */
    Phase phase() const { return currentPhase; }

    /** True once the measurement target has been reached. */
    bool done() const { return currentPhase == Phase::Done; }

    /** Measurement samples recorded so far. */
    std::uint64_t measured() const { return measuredCount; }

    /**
     * The q-quantile of the measurement distribution.
     * Requires at least one measurement sample.
     */
    double quantile(double q) const;

    /** Mean of the measurement distribution. */
    double mean() const;

    /** Raw measurement sub-sample (reservoir). */
    const std::vector<double> &rawSamples() const;

    /** The adaptive histogram (null unless kind == Adaptive). */
    const stats::AdaptiveHistogram *adaptiveHistogram() const;

    /** The static histogram (null unless kind == Static). */
    const stats::StaticHistogram *staticHistogram() const;

    /** (sample count, quantile estimate) pairs when trajectory
     *  recording is enabled. */
    const std::vector<std::pair<std::uint64_t, double>> &
    trajectory() const
    {
        return trajectoryPoints;
    }

  private:
    Params params;
    Phase currentPhase = Phase::WarmUp;
    std::uint64_t warmUpCount = 0;
    std::uint64_t measuredCount = 0;
    std::vector<double> calibration;
    std::unique_ptr<stats::AdaptiveHistogram> adaptive;
    std::unique_ptr<stats::StaticHistogram> staticHist;
    std::vector<double> raw;
    stats::ReservoirSampler reservoir;
    std::vector<std::pair<std::uint64_t, double>> trajectoryPoints;
};

} // namespace core
} // namespace treadmill

#endif // TREADMILL_CORE_COLLECTOR_H_
