/**
 * @file
 * The assembled server machine: cores, DVFS, Turbo/thermal, NIC, NUMA.
 *
 * Machine composes the per-feature models into one system under test.
 * Server software (the Memcached and mcrouter models) submits CPU work
 * to cores through Machine, which applies the active HardwareConfig:
 * frequency steps and transition stalls (DVFS governor), thermal-
 * limited Turbo residency, NUMA memory stalls, and RSS interrupt
 * steering.
 */

#ifndef TREADMILL_HW_MACHINE_H_
#define TREADMILL_HW_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/core.h"
#include "hw/frequency.h"
#include "hw/hardware_config.h"
#include "hw/machine_spec.h"
#include "hw/nic.h"
#include "hw/placement.h"
#include "hw/thermal.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/types.h"

namespace treadmill {
namespace hw {

/** One configured server machine inside a simulation. */
class Machine
{
  public:
    /**
     * @param sim Owning simulation.
     * @param config Factor levels for this run.
     * @param runSeed Run identity; drives placement (hysteresis) and
     *        the machine's internal stochastic draws.
     */
    Machine(sim::Simulation &sim, const HardwareConfig &config,
            std::uint64_t runSeed);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Submit CPU work to core @p coreId. */
    void submit(unsigned coreId, WorkItem item);

    /** @name Accessors
     * @{
     */
    const HardwareConfig &config() const { return hwConfig; }
    const PlacementState &placement() const { return placementState; }
    const Nic &nic() const { return nicModel; }
    /** Mutable NIC access for the fault injector's storm hook. */
    Nic &mutableNic() { return nicModel; }
    sim::Simulation &simulation() { return sim; }
    /** @} */

    /**
     * Memory-stall time for one request touching the buffer of
     * @p connectionId, under the active NUMA policy and this run's
     * buffer placement.
     */
    SimDuration memoryStall(std::uint64_t connectionId);

    /** Core hosting worker thread @p workerIdx. */
    unsigned workerCore(unsigned workerIdx) const;

    /** Worker thread index serving @p connectionId. */
    unsigned workerOfConnection(std::uint64_t connectionId) const;

    /**
     * Mean busy fraction of the worker cores (the paper's "server
     * utilization" knob).
     */
    double workerUtilization() const;

    /** Busy fraction of core @p coreId. */
    double coreUtilization(unsigned coreId) const;

    /** Total DVFS transitions across all cores (diagnostics). */
    std::uint64_t totalFrequencyTransitions() const;

    /**
     * Expected service seconds per worker-request at the nominal
     * frequency under this config's *mean* memory behaviour; used by
     * harnesses to translate a target utilization into a request rate.
     *
     * @param cyclesPerRequest Frequency-scaled worker cycles.
     */
    double expectedServiceSeconds(double cyclesPerRequest) const;

    /** Compute-only component of expectedServiceSeconds(). */
    double expectedComputeSeconds(double cyclesPerRequest) const;

    /** Mean NUMA memory-stall seconds per request under this config. */
    double expectedMemoryStallSeconds() const;

  private:
    /** Wall-clock duration model for one work item on one core. */
    SimDuration durationOf(unsigned coreId, const WorkItem &item);

    /** Periodic ondemand-governor sampling tick. */
    void governorTick();

    sim::Simulation &sim;
    HardwareConfig hwConfig;
    PlacementState placementState;
    Nic nicModel;
    ThermalModel thermal;
    Rng rng;
    std::vector<CoreFrequency> coreFreq;
    std::vector<std::unique_ptr<Core>> cores;
};

} // namespace hw
} // namespace treadmill

#endif // TREADMILL_HW_MACHINE_H_
