#include "server/mcrouter.h"

#include <utility>

#include "util/logging.h"

namespace treadmill {
namespace server {

namespace {

/** @name Service costs of the mcrouter model
 * @{
 */
constexpr double kDeserializeCycles = 20000.0; ///< Parsing + routing.
constexpr double kSerializeCycles = 7000.0;    ///< Response relay cost.
constexpr double kCyclesPerValueByte = 2.0;    ///< Marginal payload cost.
constexpr double kWorkJitterSigma = 0.35;      ///< Lognormal sigma.
/** Occasional slow requests (route-map misses, reconnects). */
constexpr double kSlowFraction = 0.008;
constexpr double kSlowMultiplier = 3.0;
/** mcrouter touches connection buffers far less than memcached; its
 *  NUMA stall is this fraction of the machine's full stall. */
constexpr double kMemStallScale = 0.35;
/** @} */

} // namespace

McrouterServer::McrouterServer(hw::Machine &machine_, std::uint64_t seed,
                               const std::string &scope)
    : machine(machine_), rng(Rng(0x6d63726f75746572ull).substream(seed)),
      jitter(-0.5 * kWorkJitterSigma * kWorkJitterSigma,
             kWorkJitterSigma),
      backendDelay(
          LogNormal::fromMoments(kBackendMeanUs, kBackendSigmaUs)),
      metrics(machine_.simulation().metrics(), scope)
{
}

void
McrouterServer::setBackendPool(Service *pool)
{
    backendPool = pool;
    pool->setSink([this](Request *response) {
        // The instant the shard's response re-entered the router tier
        // (span traces split fabric time from router egress on this
        // stamp).
        response->routerReturn = machine.simulation().now();
        serializeOnWorker(response);
    });
}

void
McrouterServer::receive(Request *request)
{
    TM_ASSERT(request->nicArrival != kNoTime,
              "request must be stamped with nicArrival");

    const unsigned irqCore =
        machine.nic().irqCore(request->connectionId);
    const unsigned workerIdx =
        machine.workerOfConnection(request->connectionId);
    const unsigned workerCoreId = machine.workerCore(workerIdx);
    const bool crossSocket = hw::kMachine.socketOf(irqCore) !=
                             hw::kMachine.socketOf(workerCoreId);

    hw::WorkItem irq;
    // Interrupt-storm fault hook: 1.0 (exact identity) when healthy.
    irq.cycles = hw::kMachine.irqCycles * machine.nic().irqLoadFactor();
    irq.allowTurbo = true;
    irq.done = [this, request, crossSocket](SimTime, SimTime) {
        deserializeOnWorker(request, crossSocket);
    };
    machine.submit(irqCore, std::move(irq));
}

void
McrouterServer::deserializeOnWorker(Request *request, bool crossSocket)
{
    const unsigned workerIdx =
        machine.workerOfConnection(request->connectionId);
    const unsigned coreId = machine.workerCore(workerIdx);

    double cycles =
        kDeserializeCycles +
        kCyclesPerValueByte * static_cast<double>(request->valueBytes);
    cycles *= jitter.sample(rng);
    if (rng.nextDouble() < kSlowFraction)
        cycles *= kSlowMultiplier;

    hw::WorkItem work;
    work.cycles = cycles;
    work.fixedStall = static_cast<SimDuration>(
        kMemStallScale *
        static_cast<double>(machine.memoryStall(request->connectionId)));
    if (crossSocket)
        work.fixedStall += hw::kMachine.crossSocketTransfer;
    work.allowTurbo = true;
    work.done = [this, request](SimTime start, SimTime) {
        request->workerStart = start;
        if (backendPool != nullptr) {
            // Real shard fabric: the pool owns the whole round trip
            // (links, shard service, response links) and hands the
            // request, hit/responseBytes filled by the shard, to the
            // sink setBackendPool wired. No router core is occupied
            // meanwhile, same as the modelled path below.
            backendPool->receive(request);
            return;
        }
        // Asynchronous backend round trip: no core occupied.
        const double delayUs = backendDelay.sample(rng);
        machine.simulation().schedule(
            microseconds(delayUs),
            [this, request] { serializeOnWorker(request); });
    };
    machine.submit(coreId, std::move(work));
}

void
McrouterServer::serializeOnWorker(Request *request)
{
    const unsigned workerIdx =
        machine.workerOfConnection(request->connectionId);
    const unsigned coreId = machine.workerCore(workerIdx);

    hw::WorkItem work;
    work.cycles = kSerializeCycles * jitter.sample(rng);
    work.allowTurbo = true;
    work.done = [this, request](SimTime, SimTime end) {
        request->workerEnd = end;
        if (backendPool == nullptr) {
            // Modelled backend: synthesize the outcome the real shard
            // would have produced.
            request->hit = true;
            request->responseBytes =
                48 + request->valueBytes / 2; // relayed value
        }
        request->nicDeparture = end;
        metrics.onServed(*request, request->nicArrival,
                         request->workerStart, end);
        answer(request);
    };
    machine.submit(coreId, std::move(work));
}

double
McrouterServer::expectedServiceSeconds(double meanValueBytes) const
{
    double cycles = kDeserializeCycles + kSerializeCycles +
                    kCyclesPerValueByte * meanValueBytes;
    cycles *= 1.0 + kSlowFraction * (kSlowMultiplier - 1.0);
    return machine.expectedComputeSeconds(cycles) +
           kMemStallScale * machine.expectedMemoryStallSeconds();
}

} // namespace server
} // namespace treadmill
