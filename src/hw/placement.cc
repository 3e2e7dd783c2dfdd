#include "hw/placement.h"

#include <algorithm>

#include "hw/machine_spec.h"
#include "util/logging.h"

namespace treadmill {
namespace hw {

PlacementState::PlacementState(const HardwareConfig &config,
                               std::uint64_t runSeed_)
    : runSeed(runSeed_), numaPolicy(config.numa)
{
    Rng rng = Rng(0x7f4a7c159e3779b9ull).substream(runSeed_);

    // Choose which socket-0 cores host the worker threads this run
    // (the OS scheduler's choice varies run to run).
    std::vector<unsigned> socket0(kMachine.coresPerSocket);
    for (unsigned i = 0; i < kMachine.coresPerSocket; ++i)
        socket0[i] = i;
    for (std::size_t i = socket0.size() - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(rng.nextBelow(i + 1));
        std::swap(socket0[i], socket0[j]);
    }
    workerCores.assign(socket0.begin(),
                       socket0.begin() + kMachine.workerThreads);
    std::sort(workerCores.begin(), workerCores.end());

    // Connection-to-worker mapping varies with the accept order.
    connectionShuffle = rng.next() | 1u;

    // Same-node policy: allocation on node 0 succeeds until the node is
    // under pressure, so most -- but not all -- buffers land local; the
    // achieved fraction is a property of the run.
    sameNodeLocal = 0.78 + 0.14 * rng.nextDouble();

    // Interleave policy: page-granular round robin puts about half of
    // the touched lines remote, jittered by where page boundaries fell.
    interleaveRemote = 0.50 + 0.08 * (rng.nextDouble() - 0.5);

    nicRotation = static_cast<unsigned>(rng.nextBelow(kMachine.nicQueues()));

    // Accept-order luck: a run-specific slice of connections lands on
    // one "hot" worker thread. Bounded so the hot worker stays stable
    // (< ~25% above its fair share), but enough to move the measured
    // tail between runs -- the paper's hysteresis.
    skewFraction = 0.05 * rng.nextDouble();
    hotWorker = static_cast<unsigned>(rng.nextBelow(kMachine.workerThreads));
}

unsigned
PlacementState::workerCore(unsigned workerIdx) const
{
    TM_ASSERT(workerIdx < kMachine.workerThreads,
              "worker index out of range");
    return workerCores[workerIdx];
}

unsigned
PlacementState::workerOfConnection(std::uint64_t connectionId) const
{
    // Memcached dispatches accepted connections round-robin across
    // worker threads, keeping load approximately balanced; the per-run
    // offset rotates the assignment, and a bounded per-run fraction of
    // connections is skewed onto the hot worker (accept-order luck).
    // Connection ids encode (client << 32 | n).
    std::uint64_t h = (connectionId ^ (connectionShuffle << 1)) *
                      0x9e3779b97f4a7c15ull;
    h ^= h >> 33;
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < skewFraction)
        return hotWorker;

    const std::uint64_t client = connectionId >> 32;
    const std::uint64_t local = connectionId & 0xffffffffull;
    return static_cast<unsigned>(
        (local + client + (connectionShuffle >> 8)) %
        kMachine.workerThreads);
}

bool
PlacementState::bufferIsLocal(std::uint64_t connectionId) const
{
    if (numaPolicy == NumaPolicy::Interleave) {
        // Interleaved buffers are never wholly local; per-access
        // locality is sampled with perAccessRemoteProbability().
        return false;
    }
    // Hash the connection id (mixed with this run's shuffle, so the
    // local/remote pattern itself varies across runs) against the
    // run's achieved local fraction.
    std::uint64_t h = (connectionId ^ connectionShuffle) *
                      0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    const double u =
        static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < sameNodeLocal;
}

} // namespace hw
} // namespace treadmill
