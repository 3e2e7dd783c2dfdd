/**
 * @file
 * Per-core DVFS state driven by a sampling governor.
 *
 * The ondemand governor samples each core's utilization once per
 * sampling period and moves the core between the minimum and nominal
 * frequency steps; every step change stalls the core while voltage and
 * PLL settle. The performance governor pins the core at nominal. This
 * is the mechanism behind the paper's Findings 3 and 4: at low load
 * cores sit at the low step (or oscillate across the thresholds,
 * paying transition stalls), while at high load they stay at nominal.
 */

#ifndef TREADMILL_HW_FREQUENCY_H_
#define TREADMILL_HW_FREQUENCY_H_

#include "hw/hardware_config.h"
#include "util/types.h"

namespace treadmill {
namespace hw {

/** Discrete frequency steps the governor selects between. */
enum class FreqStep { Min, Base };

/** DVFS state of a single core. */
class CoreFrequency
{
  public:
    /** @param governor Active governor for this run. */
    explicit CoreFrequency(DvfsGovernor governor);

    /** Current frequency step. */
    FreqStep step() const { return current; }

    /** Current operating frequency in GHz. */
    double currentGhz() const;

    /**
     * Record @p busyNs of execution inside the current sampling window
     * (the governor's utilization estimator input).
     */
    void accountBusy(double busyNs) { windowBusyNs += busyNs; }

    /**
     * Close a sampling window of length @p windowNs and let the
     * governor pick the next step.
     *
     * @return true when the step changed (a transition stall is now
     *         pending and will be charged to the next execution).
     */
    bool sampleWindow(double windowNs);

    /**
     * Take (and clear) the pending transition stall to charge to the
     * next work executed on this core.
     */
    SimDuration takePendingStall();

    /** Total frequency transitions so far (diagnostics). */
    std::uint64_t transitions() const { return transitionCount; }

  private:
    DvfsGovernor governor;
    FreqStep current;
    double windowBusyNs = 0.0;
    SimDuration pendingStall = 0;
    std::uint64_t transitionCount = 0;
};

} // namespace hw
} // namespace treadmill

#endif // TREADMILL_HW_FREQUENCY_H_
