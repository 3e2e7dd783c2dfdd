/**
 * @file
 * NIC receive-side scaling (RSS) model.
 *
 * The simulated NIC hashes each flow into one of 2^4 = 16 interrupt
 * queues (the paper's hardware exposes a 4-bit hash) and steers each
 * queue's interrupts to a core according to the affinity factor:
 * same-node keeps every queue on socket-0 cores, all-nodes spreads
 * them across both sockets. The per-run rotation models irqbalance
 * landing on a different assignment each boot.
 */

#ifndef TREADMILL_HW_NIC_H_
#define TREADMILL_HW_NIC_H_

#include <cstdint>

#include "hw/hardware_config.h"
#include "hw/machine_spec.h"
#include "hw/placement.h"

namespace treadmill {
namespace hw {

/** Maps flows to interrupt queues to cores. */
class Nic
{
  public:
    Nic(const HardwareConfig &config, const PlacementState &placement);

    /** RSS hash: interrupt queue for @p connectionId. */
    unsigned queueOf(std::uint64_t connectionId) const;

    /** Core handling interrupts for queue @p queue. */
    unsigned coreOfQueue(unsigned queue) const;

    /** Core handling interrupts for @p connectionId's packets. */
    unsigned irqCore(std::uint64_t connectionId) const;

    /** Number of interrupt queues. */
    static constexpr unsigned queues() { return kMachine.nicQueues(); }

    /** @name Fault-injection hooks (interrupt storms)
     * @{
     */
    /**
     * Current multiplier on interrupt-handling cost. Servers scale
     * their per-request IRQ cycles by this; it is 1.0 except inside an
     * injected interrupt-storm window.
     */
    double irqLoadFactor() const { return irqLoad; }

    /** Set the storm multiplier (injector hook; 1.0 = healthy). */
    void setIrqLoadFactor(double factor) { irqLoad = factor; }
    /** @} */

  private:
    NicAffinity affinity;
    unsigned rotation;
    double irqLoad = 1.0;
};

} // namespace hw
} // namespace treadmill

#endif // TREADMILL_HW_NIC_H_
