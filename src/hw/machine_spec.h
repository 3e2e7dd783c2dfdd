/**
 * @file
 * The simulated server machine's constants.
 *
 * MachineSpec is the Table II analogue plus the tuning constants of the
 * behavioural models (DVFS governor, Turbo thermal pool, NUMA stalls,
 * NIC interrupt handling). One machine, kMachine, is the system under
 * test for every experiment in the paper's evaluation: the models read
 * it directly, and a run varies only the factor levels of its
 * HardwareConfig.
 */

#ifndef TREADMILL_HW_MACHINE_SPEC_H_
#define TREADMILL_HW_MACHINE_SPEC_H_

#include <cstdint>

#include "util/types.h"

namespace treadmill {
namespace hw {

/** Static hardware description and model constants. */
struct MachineSpec {
    /** @name Table II analogue
     * @{
     */
    const char *processor = "Simulated Xeon E5-2660 v2 class";
    unsigned sockets = 2;
    unsigned coresPerSocket = 10;
    unsigned dramGb = 144;
    unsigned dramMhz = 1333;
    double nicGbps = 10.0;
    const char *nicModel = "Simulated 10GbE, 4-bit RSS hash";
    const char *kernel = "simulated-3.10";
    /** @} */

    /** @name Frequency domain
     * @{
     */
    double minFreqGhz = 1.2;   ///< Lowest DVFS step.
    double baseFreqGhz = 2.2;  ///< Nominal frequency.
    double turboFreqGhz = 3.0; ///< Single-core Turbo Boost ceiling.
    /** @} */

    /** @name Ondemand governor model
     * The governor samples per-core utilization every samplingPeriod;
     * crossing the thresholds changes the frequency step, and each
     * change stalls the core while the voltage/PLL settles.
     * @{
     */
    SimDuration governorSamplingPeriod = milliseconds(1);
    double governorUpThreshold = 0.30;
    double governorDownThreshold = 0.15;
    SimDuration frequencyTransitionStall = microseconds(55);
    /** @} */

    /** @name Turbo Boost thermal model
     * A machine-wide token bucket of turbo-nanoseconds. Refill scales
     * with thermal headroom; running the package hot (performance
     * governor keeps every core at nominal voltage) makes each turbo
     * nanosecond cost more headroom.
     * @{
     */
    double thermalCapacityUs = 2000.0; ///< Bucket size, turbo-us.
    double thermalRefillRate = 1.10;   ///< Turbo-ns earned per wall-ns.
    double performanceGovernorTurboCost = 2.6; ///< Token cost multiplier.
    /** @} */

    /** @name NUMA memory model
     * Each request touches its connection buffer `bufferAccesses`
     * times; each touch stalls for the local or remote latency
     * depending on where the buffer page lives.
     * @{
     */
    double localMemStallNs = 90.0;
    double remoteMemStallNs = 175.0;
    unsigned bufferAccesses = 40;
    /** @} */

    /** @name NIC interrupt handling
     * @{
     */
    unsigned nicHashBits = 4; ///< 2^bits interrupt queues (paper: 16).
    double irqCycles = 3000.0; ///< Cycles to handle one interrupt.
    /** Extra worker-side stall when the interrupt was handled on the
     *  other socket (request data must cross the interconnect). */
    SimDuration crossSocketTransfer = nanoseconds(900);
    /** @} */

    /** @name Software shape
     * Worker threads are pinned to distinct cores on socket 0 (memory
     * node 0), matching the deployment the NUMA factor levels assume.
     * @{
     */
    unsigned workerThreads = 4;
    /** @} */

    /** Total cores across all sockets. */
    constexpr unsigned totalCores() const
    {
        return sockets * coresPerSocket;
    }

    /** Number of NIC interrupt queues (2^nicHashBits). */
    constexpr unsigned nicQueues() const { return 1u << nicHashBits; }

    /** Socket that owns core @p coreId. */
    constexpr unsigned socketOf(unsigned coreId) const
    {
        return coreId / coresPerSocket;
    }
};

/** The one simulated server machine every run uses. */
inline constexpr MachineSpec kMachine{};

static_assert(kMachine.workerThreads <= kMachine.coresPerSocket,
              "worker threads must fit on socket 0");

} // namespace hw
} // namespace treadmill

#endif // TREADMILL_HW_MACHINE_SPEC_H_
