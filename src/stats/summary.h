/**
 * @file
 * Summary statistics and exact sample quantiles.
 */

#ifndef TREADMILL_STATS_SUMMARY_H_
#define TREADMILL_STATS_SUMMARY_H_

#include <vector>

namespace treadmill {
namespace stats {

/**
 * The q-quantile of @p sorted (ascending) by linear interpolation
 * (R type-7 / NumPy default). @p sorted must be non-empty.
 */
double quantileSorted(const std::vector<double> &sorted, double q);

/**
 * The q-quantile of @p samples (any order); sorts a copy.
 */
double quantile(std::vector<double> samples, double q);

/** Arithmetic mean of @p xs; 0 when empty. */
double mean(const std::vector<double> &xs);

/** Median of @p xs (sorts a copy); 0 when empty. */
double median(std::vector<double> xs);

/** Unbiased sample standard deviation of @p xs; 0 for size < 2. */
double stddev(const std::vector<double> &xs);

} // namespace stats
} // namespace treadmill

#endif // TREADMILL_STATS_SUMMARY_H_
