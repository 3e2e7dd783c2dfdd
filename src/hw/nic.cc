#include "hw/nic.h"

namespace treadmill {
namespace hw {

Nic::Nic(const HardwareConfig &config, const PlacementState &placement)
    : affinity(config.nic), rotation(placement.nicQueueRotation())
{
}

unsigned
Nic::queueOf(std::uint64_t connectionId) const
{
    // Toeplitz-like mixing reduced to a multiplicative hash; only the
    // low nicHashBits survive, as on the paper's hardware.
    std::uint64_t h = connectionId * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
    return static_cast<unsigned>(h & (queues() - 1));
}

unsigned
Nic::coreOfQueue(unsigned queue) const
{
    const unsigned rotated = (queue + rotation) % queues();
    if (affinity == NicAffinity::SameNode)
        return rotated % kMachine.coresPerSocket;
    return rotated % kMachine.totalCores();
}

unsigned
Nic::irqCore(std::uint64_t connectionId) const
{
    return coreOfQueue(queueOf(connectionId));
}

} // namespace hw
} // namespace treadmill
