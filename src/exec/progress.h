/**
 * @file
 * Progress reporting for a fan-out: tasks completed / total,
 * wall-clock elapsed, and accumulated task-defined work units (the
 * study driver reports simulated seconds, giving an achieved
 * sim-time throughput).
 */

#ifndef TREADMILL_EXEC_PROGRESS_H_
#define TREADMILL_EXEC_PROGRESS_H_

#include <chrono>
#include <cstddef>
#include <functional>
#include <mutex>

namespace treadmill {
namespace exec {

/** Snapshot passed to the progress callback after each completed task. */
struct Progress {
    std::size_t completed = 0; ///< Tasks finished so far.
    std::size_t total = 0;     ///< Tasks in this fan-out.
    double wallSeconds = 0.0;  ///< Wall-clock since the meter started.
    /** Task-defined units completed (e.g. simulated seconds). */
    double workUnits = 0.0;

    /** Work units per wall-clock second (0 until the clock advances). */
    double
    throughput() const
    {
        return wallSeconds > 0.0 ? workUnits / wallSeconds : 0.0;
    }
};

/** Observes fan-out progress; invoked serially (never concurrently). */
using ProgressFn = std::function<void(const Progress &)>;

/**
 * Counts the finished tasks of one fan-out for a ProgressFn.
 *
 * done() may be called from any lane; the observer sees one call at a
 * time, with `completed` rising by one per call. Without an observer,
 * done() returns at once.
 */
class ProgressMeter
{
  public:
    /** Start the wall clock for @p total tasks reported to @p fn. */
    ProgressMeter(std::size_t total, ProgressFn fn);

    ProgressMeter(const ProgressMeter &) = delete;
    ProgressMeter &operator=(const ProgressMeter &) = delete;

    /** Count one finished task worth @p workUnits. Thread-safe. */
    void done(double workUnits);

  private:
    ProgressFn fn;
    std::chrono::nanoseconds start; ///< Host clock at construction.
    std::mutex mutex;
    Progress snapshot; // tm:guarded_by(mutex)
};

} // namespace exec
} // namespace treadmill

#endif // TREADMILL_EXEC_PROGRESS_H_
