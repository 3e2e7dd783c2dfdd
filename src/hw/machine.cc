#include "hw/machine.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace treadmill {
namespace hw {

Machine::Machine(sim::Simulation &sim_, const HardwareConfig &config_,
                 std::uint64_t runSeed)
    : sim(sim_), hwConfig(config_), placementState(hwConfig, runSeed),
      nicModel(hwConfig, placementState),
      thermal(kMachine.thermalCapacityUs * 1e3,
              kMachine.thermalRefillRate),
      rng(Rng(0x5bd1e995cafebabeull).substream(runSeed))
{
    coreFreq.reserve(kMachine.totalCores());
    cores.reserve(kMachine.totalCores());
    for (unsigned c = 0; c < kMachine.totalCores(); ++c) {
        coreFreq.emplace_back(hwConfig.dvfs);
        cores.push_back(std::make_unique<Core>(
            sim, c, [this](unsigned coreId, const WorkItem &item) {
                return durationOf(coreId, item);
            }));
    }
    if (hwConfig.dvfs == DvfsGovernor::Ondemand) {
        sim.schedule(kMachine.governorSamplingPeriod,
                     [this] { governorTick(); });
    }
}

void
Machine::governorTick()
{
    const double window =
        static_cast<double>(kMachine.governorSamplingPeriod);
    for (auto &freq : coreFreq)
        freq.sampleWindow(window);
    sim.schedule(kMachine.governorSamplingPeriod,
                 [this] { governorTick(); });
}

void
Machine::submit(unsigned coreId, WorkItem item)
{
    TM_ASSERT(coreId < cores.size(), "core id out of range");
    cores[coreId]->submit(std::move(item));
}

SimDuration
Machine::durationOf(unsigned coreId, const WorkItem &item)
{
    CoreFrequency &freq = coreFreq[coreId];

    // Any pending DVFS transition stalls the core first.
    const SimDuration transitionStall = freq.takePendingStall();

    const double ghz = freq.currentGhz();
    double computeNs = item.cycles / ghz;

    if (hwConfig.turbo == TurboMode::On && item.allowTurbo &&
        freq.step() == FreqStep::Base) {
        // Ask the thermal pool for turbo residency covering this item.
        const double turboNs = item.cycles / kMachine.turboFreqGhz;
        const double cost =
            hwConfig.dvfs == DvfsGovernor::Performance
                ? kMachine.performanceGovernorTurboCost
                : 1.0;
        const double granted = thermal.request(sim.now(), turboNs, cost);
        const double phi = turboNs > 0.0 ? granted / turboNs : 0.0;
        computeNs = phi * turboNs + (1.0 - phi) * computeNs;
    }

    const SimDuration total =
        transitionStall + item.fixedStall +
        static_cast<SimDuration>(std::llround(std::max(1.0, computeNs)));
    freq.accountBusy(static_cast<double>(total));
    return total;
}

SimDuration
Machine::memoryStall(std::uint64_t connectionId)
{
    const double local = kMachine.localMemStallNs;
    const double remote = kMachine.remoteMemStallNs;
    const auto accesses =
        static_cast<double>(kMachine.bufferAccesses);

    double stallNs = 0.0;
    if (hwConfig.numa == NumaPolicy::Interleave) {
        // Page-interleaved buffer: roughly half the touches go remote;
        // the binomial spread is approximated with a normal draw.
        const double p = placementState.perAccessRemoteProbability();
        const double meanRemote = accesses * p;
        const double sdRemote = std::sqrt(accesses * p * (1.0 - p));
        // Box-Muller using the machine's private stream.
        const double u1 = rng.nextDoublePositive();
        const double u2 = rng.nextDouble();
        const double z =
            std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
        const double nRemote = std::clamp(meanRemote + sdRemote * z, 0.0,
                                          accesses);
        stallNs = (accesses - nRemote) * local + nRemote * remote;
    } else {
        stallNs = placementState.bufferIsLocal(connectionId)
                      ? accesses * local
                      : accesses * remote;
    }
    return static_cast<SimDuration>(stallNs);
}

unsigned
Machine::workerCore(unsigned workerIdx) const
{
    return placementState.workerCore(workerIdx);
}

unsigned
Machine::workerOfConnection(std::uint64_t connectionId) const
{
    return placementState.workerOfConnection(connectionId);
}

double
Machine::workerUtilization() const
{
    double sum = 0.0;
    for (unsigned w = 0; w < kMachine.workerThreads; ++w)
        sum += cores[workerCore(w)]->utilization();
    return sum / static_cast<double>(kMachine.workerThreads);
}

double
Machine::coreUtilization(unsigned coreId) const
{
    TM_ASSERT(coreId < cores.size(), "core id out of range");
    return cores[coreId]->utilization();
}

std::uint64_t
Machine::totalFrequencyTransitions() const
{
    std::uint64_t total = 0;
    for (const auto &freq : coreFreq)
        total += freq.transitions();
    return total;
}

double
Machine::expectedComputeSeconds(double cyclesPerRequest) const
{
    // At the nominal step, ignoring turbo (conservative for sizing).
    return cyclesPerRequest / kMachine.baseFreqGhz * 1e-9;
}

double
Machine::expectedMemoryStallSeconds() const
{
    const double local = kMachine.localMemStallNs;
    const double remote = kMachine.remoteMemStallNs;
    const auto accesses =
        static_cast<double>(kMachine.bufferAccesses);
    double memNs = 0.0;
    if (hwConfig.numa == NumaPolicy::Interleave) {
        const double p = placementState.perAccessRemoteProbability();
        memNs = accesses * ((1.0 - p) * local + p * remote);
    } else {
        const double pLocal = placementState.localBufferFraction();
        memNs = accesses * (pLocal * local + (1.0 - pLocal) * remote);
    }
    return memNs * 1e-9;
}

double
Machine::expectedServiceSeconds(double cyclesPerRequest) const
{
    return expectedComputeSeconds(cyclesPerRequest) +
           expectedMemoryStallSeconds();
}

} // namespace hw
} // namespace treadmill
