// tmlint:allow-file(no-wallclock): progress ETA is operator-facing wall
// time; it never feeds simulated timestamps or measured results.

#include "exec/progress.h"

#include <utility>

namespace treadmill {
namespace exec {

namespace {

std::chrono::nanoseconds
hostNow()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now().time_since_epoch());
}

} // namespace

ProgressMeter::ProgressMeter(std::size_t total, ProgressFn fn_)
    : fn(std::move(fn_)), start(hostNow())
{
    snapshot.total = total;
}

void
ProgressMeter::done(double workUnits)
{
    if (!fn)
        return;
    // The observer runs under the lock: that is what keeps its calls
    // one at a time and each snapshot's `completed` in step with them.
    std::lock_guard<std::mutex> lock(mutex);
    ++snapshot.completed;
    snapshot.workUnits += workUnits;
    snapshot.wallSeconds =
        std::chrono::duration<double>(hostNow() - start).count();
    fn(snapshot);
}

} // namespace exec
} // namespace treadmill
