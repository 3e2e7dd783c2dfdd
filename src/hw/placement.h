/**
 * @file
 * Per-run placement state: the source of performance hysteresis.
 *
 * The paper attributes hysteresis to "changes in underlying system
 * states such as the mapping of logical memory, threads, and
 * connections to physical resources" (S I). PlacementState draws those
 * mappings once per run from the run seed: which cores host the worker
 * threads, how connections are assigned to workers, where each
 * connection's buffer pages landed, and how interrupt queues rotate
 * onto cores. Two runs with identical HardwareConfig but different run
 * seeds therefore converge to different latency values -- exactly the
 * Fig 4 phenomenon -- while a fixed run seed reproduces bit-for-bit.
 */

#ifndef TREADMILL_HW_PLACEMENT_H_
#define TREADMILL_HW_PLACEMENT_H_

#include <cstdint>
#include <vector>

#include "hw/hardware_config.h"
#include "util/rng.h"

namespace treadmill {
namespace hw {

/** Randomized per-run resource mappings. */
class PlacementState
{
  public:
    /**
     * Draw a placement for one run.
     *
     * @param config Factor levels (the NUMA policy shapes buffer
     *        placement probabilities).
     * @param runSeed Seed identifying the run; same seed, same state.
     */
    PlacementState(const HardwareConfig &config, std::uint64_t runSeed);

    /** Core hosting worker thread @p workerIdx (socket 0). */
    unsigned workerCore(unsigned workerIdx) const;

    /** Worker thread serving connection @p connectionId. */
    unsigned workerOfConnection(std::uint64_t connectionId) const;

    /**
     * True when @p connectionId's buffer pages are on the worker's
     * local memory node. Decided per connection at setup time under
     * the same-node policy; under interleave each access is decided
     * per touch (see perAccessRemoteProbability()).
     */
    bool bufferIsLocal(std::uint64_t connectionId) const;

    /**
     * Probability that one buffer access under the interleave policy
     * touches the remote node (around one half, jittered per run).
     */
    double perAccessRemoteProbability() const { return interleaveRemote; }

    /** Rotation applied to the NIC queue -> core mapping this run. */
    unsigned nicQueueRotation() const { return nicRotation; }

    /** Fraction of connections with node-local buffers this run. */
    double localBufferFraction() const { return sameNodeLocal; }

    /** The run seed this placement was drawn from. */
    std::uint64_t seed() const { return runSeed; }

  private:
    std::uint64_t runSeed;
    std::vector<unsigned> workerCores;
    std::uint64_t connectionShuffle;
    double sameNodeLocal;
    double interleaveRemote;
    unsigned nicRotation;
    double skewFraction;
    unsigned hotWorker;
    NumaPolicy numaPolicy;
};

} // namespace hw
} // namespace treadmill

#endif // TREADMILL_HW_PLACEMENT_H_
