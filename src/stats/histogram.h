/**
 * @file
 * Latency histograms: the adaptive design Treadmill uses and the static
 * design whose bias the paper demonstrates.
 *
 * Treadmill's three-phase execution (warm-up / calibration / measurement)
 * is reflected here: AdaptiveHistogram is constructed from calibration
 * samples which set the initial bin bounds, then re-bins itself whenever
 * a sufficient fraction of incoming values exceeds the current upper
 * bound. StaticHistogram clamps out-of-range samples into its edge bins,
 * reproducing the bias of non-adaptive load testers (paper S II-B).
 */
// tmlint:hot-path -- add() is called once per recorded sample; the
// inline fast path must stay allocation- and exception-free.

#ifndef TREADMILL_STATS_HISTOGRAM_H_
#define TREADMILL_STATS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace treadmill {
namespace stats {

/**
 * Linear-binned histogram that widens its range when samples overflow.
 *
 * Re-binning doubles the bin width (merging adjacent bin pairs exactly)
 * until the triggering value fits, so no measured mass is ever lost --
 * only resolution degrades, and only when the tail demands more range.
 */
class AdaptiveHistogram
{
  public:
    /** Tuning parameters. */
    struct Params {
        /** Number of bins kept across re-binnings. */
        std::size_t binCount = 1024;
        /** Re-bin once this many samples have landed above the range. */
        std::uint64_t overflowTrigger = 64;
        /** Headroom factor applied above the calibration maximum. */
        double calibrationHeadroom = 2.0;
    };

    /**
     * Calibrate bounds from raw samples (Treadmill's calibration phase).
     *
     * @param calibration Raw latency samples; must be non-empty.
     */
    AdaptiveHistogram(const std::vector<double> &calibration,
                      const Params &params);
    explicit AdaptiveHistogram(const std::vector<double> &calibration)
        : AdaptiveHistogram(calibration, Params{}) {}

    /** Construct with explicit bounds (no calibration data). */
    AdaptiveHistogram(double lo, double hi, const Params &params);
    AdaptiveHistogram(double lo_, double hi_)
        : AdaptiveHistogram(lo_, hi_, Params{}) {}

    /**
     * Record one sample (measurement phase).
     *
     * Inlined fast path: once calibration has sized the range, nearly
     * every sample lands in [lo, hi) and costs one bounds check plus
     * one bin increment; under/overflow handling stays out of line.
     */
    void
    add(double x)
    {
        ++total;
        if (x >= lo && x < hi) {
            const auto idx = static_cast<std::size_t>((x - lo) / width);
            ++bins[idx < bins.size() ? idx : bins.size() - 1];
            return;
        }
        addSlow(x);
    }

    /** Total recorded samples (including any pending overflow). */
    std::uint64_t count() const { return total; }

    /** Current lower edge of the binned range. */
    double lowerBound() const { return lo; }

    /** Current upper edge of the binned range. */
    double upperBound() const { return hi; }

    /** Number of re-binning episodes performed so far. */
    std::uint64_t rebinCount() const { return rebins; }

    /**
     * The q-quantile with linear interpolation inside the bin.
     * Requires at least one sample.
     */
    double quantile(double q) const;

    /** Approximate CDF value at @p x. */
    double cdf(double x) const;

    /** Mean of the recorded distribution (bin midpoints). */
    double mean() const;

    /** Merge another histogram's mass into this one (by bin midpoint). */
    void merge(const AdaptiveHistogram &other);

    /** Bin count currently configured. */
    std::size_t binCount() const { return bins.size(); }

    /** Capacity of the parked-overflow buffer (regression hook: it is
     *  pre-reserved to overflowTrigger and must never grow past it). */
    std::size_t overflowCapacity() const
    {
        return overflowPending.capacity();
    }

  private:
    /** Out-of-range samples: clamp below, park-and-widen above. */
    void addSlow(double x);

    /** Double the range (merging bin pairs) until @p x fits. */
    void widenToInclude(double x);

    /** Flush samples parked above the range into the bins. */
    void absorbOverflow();

    Params params;
    double lo;
    double hi;
    double width;
    std::vector<std::uint64_t> bins;
    std::vector<double> overflowPending;
    std::uint64_t underflow = 0; // clamped into bin 0 (kept exact via lo=0)
    std::uint64_t total = 0;
    std::uint64_t rebins = 0;
};

/**
 * Fixed-range histogram that clamps out-of-range samples; models the
 * "static histogram binning" pitfall. Values above the range pile into
 * the last bin, silently capping measured tail latency.
 */
class StaticHistogram
{
  public:
    StaticHistogram(double lo, double hi, std::size_t binCount);

    /** Record one sample; in-range fast path inlined as in
     *  AdaptiveHistogram::add. */
    void
    add(double x)
    {
        ++total;
        if (x >= lo && x < hi) {
            const auto idx = static_cast<std::size_t>((x - lo) / width);
            ++bins[idx < bins.size() ? idx : bins.size() - 1];
            return;
        }
        addSlow(x);
    }

    std::uint64_t count() const { return total; }

    /** Number of samples clamped into the top bin from above. */
    std::uint64_t clampedHigh() const { return clampedHi; }

    double quantile(double q) const;

    double cdf(double x) const;

  private:
    /** Clamp an out-of-range sample into the edge bins. */
    void addSlow(double x);

    double lo;
    double hi;
    double width;
    std::vector<std::uint64_t> bins;
    std::uint64_t total = 0;
    std::uint64_t clampedHi = 0;
};

} // namespace stats
} // namespace treadmill

#endif // TREADMILL_STATS_HISTOGRAM_H_
