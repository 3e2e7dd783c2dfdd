#include "hw/frequency.h"

#include <algorithm>

#include "hw/machine_spec.h"
#include "util/logging.h"

namespace treadmill {
namespace hw {

CoreFrequency::CoreFrequency(DvfsGovernor governor_)
    : governor(governor_)
{
    // Performance pins nominal; ondemand boots at the low step and
    // ramps up once it observes utilization.
    current = governor == DvfsGovernor::Performance ? FreqStep::Base
                                                    : FreqStep::Min;
}

double
CoreFrequency::currentGhz()
const
{
    return current == FreqStep::Base ? kMachine.baseFreqGhz
                                     : kMachine.minFreqGhz;
}

bool
CoreFrequency::sampleWindow(double windowNs)
{
    if (governor == DvfsGovernor::Performance) {
        windowBusyNs = 0.0;
        return false;
    }
    const double utilization =
        windowNs > 0.0 ? std::min(1.0, windowBusyNs / windowNs) : 0.0;
    windowBusyNs = 0.0;

    FreqStep target = current;
    if (utilization > kMachine.governorUpThreshold)
        target = FreqStep::Base;
    else if (utilization < kMachine.governorDownThreshold)
        target = FreqStep::Min;

    if (target == current)
        return false;
    current = target;
    pendingStall += kMachine.frequencyTransitionStall;
    ++transitionCount;
    return true;
}

SimDuration
CoreFrequency::takePendingStall()
{
    const SimDuration stall = pendingStall;
    pendingStall = 0;
    return stall;
}

} // namespace hw
} // namespace treadmill
