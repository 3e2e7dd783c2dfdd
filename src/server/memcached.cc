#include "server/memcached.h"

#include <utility>

#include "util/logging.h"

namespace treadmill {
namespace server {

namespace {

/** @name Service costs of the Memcached model
 * @{
 */
constexpr double kGetCycles = 17000.0; ///< Base worker cycles for a GET.
constexpr double kSetCycles = 20000.0; ///< Base worker cycles for a SET.
constexpr double kCyclesPerValueByte = 6.0; ///< Marginal payload cost.
constexpr double kWorkJitterSigma = 0.45; ///< Lognormal sigma on cycles.
/** Occasional slow requests (hash-chain walks, slab maintenance,
 *  epoll hiccups): this fraction of requests costs kSlowMultiplier
 *  times the normal cycles -- the intrinsic service-time tail. */
constexpr double kSlowFraction = 0.015;
constexpr double kSlowMultiplier = 8.0;
/** @} */

} // namespace

MemcachedServer::MemcachedServer(hw::Machine &machine_,
                                 std::uint64_t seed,
                                 const std::string &scope,
                                 bool backendRole_)
    : machine(machine_), rng(Rng(0x6d656d63616368ull).substream(seed)),
      jitter(-0.5 * kWorkJitterSigma * kWorkJitterSigma,
             kWorkJitterSigma),
      metrics(machine_.simulation().metrics(), scope),
      backendRole(backendRole_)
{
}

// tmlint:hot-path-begin -- receive and executeOnWorker run once per
// served request, including the key-size map lookup or store.
void
MemcachedServer::receive(Request *request)
{
    TM_ASSERT(backendRole ? request->backendNicArrival != kNoTime
                          : request->nicArrival != kNoTime,
              "request must be stamped with its NIC arrival");

    const unsigned irqCore =
        machine.nic().irqCore(request->connectionId);
    const unsigned workerIdx =
        machine.workerOfConnection(request->connectionId);
    const unsigned workerCoreId = machine.workerCore(workerIdx);
    const bool crossSocket = hw::kMachine.socketOf(irqCore) !=
                             hw::kMachine.socketOf(workerCoreId);

    // Stage 1: interrupt handling on the RSS-steered core.
    hw::WorkItem irq;
    // An injected interrupt storm multiplies handling cost (1.0 when
    // healthy, which is an exact identity on the cycle count).
    irq.cycles = hw::kMachine.irqCycles * machine.nic().irqLoadFactor();
    irq.fixedStall = 0;
    irq.allowTurbo = true;
    irq.done = [this, request, crossSocket](SimTime, SimTime) {
        executeOnWorker(request, crossSocket);
    };
    machine.submit(irqCore, std::move(irq));
}

void
MemcachedServer::executeOnWorker(Request *request, bool crossSocket)
{
    const unsigned workerIdx =
        machine.workerOfConnection(request->connectionId);
    const unsigned coreId = machine.workerCore(workerIdx);

    double cycles =
        request->op == OpType::Get ? kGetCycles : kSetCycles;
    cycles += kCyclesPerValueByte * static_cast<double>(request->valueBytes);
    cycles *= jitter.sample(rng);
    if (rng.nextDouble() < kSlowFraction)
        cycles *= kSlowMultiplier;

    hw::WorkItem work;
    work.cycles = cycles;
    work.fixedStall = machine.memoryStall(request->connectionId);
    if (crossSocket)
        work.fixedStall += hw::kMachine.crossSocketTransfer;
    work.allowTurbo = true;
    work.done = [this, request](SimTime start, SimTime end) {
        // A backend shard keeps its window in the backend* stamps so
        // the router's workerStart/End on the same Request survive.
        if (backendRole) {
            request->backendWorkerStart = start;
            request->backendWorkerEnd = end;
        } else {
            request->workerStart = start;
            request->workerEnd = end;
        }

        // Perform the hash-table operation. The store keeps value
        // sizes, so a GET hit answers with the size the last SET of
        // its key stored.
        if (request->op == OpType::Set) {
            values.insertOrAssign(request->keyId, request->valueBytes);
            request->hit = true;
            request->responseBytes = 48; // STORED + headers
        } else {
            const std::uint32_t *stored = values.find(request->keyId);
            request->hit = stored != nullptr;
            request->responseBytes = 48 + (stored ? *stored : 0);
        }

        if (backendRole) {
            request->backendNicDeparture = end;
            metrics.onServed(*request, request->backendNicArrival,
                             start, end);
        } else {
            request->nicDeparture = end;
            metrics.onServed(*request, request->nicArrival, start, end);
        }
        answer(request);
    };
    machine.submit(coreId, std::move(work));
}

// tmlint:hot-path-end

double
MemcachedServer::expectedServiceSeconds(double meanValueBytes) const
{
    double cycles = kGetCycles + kCyclesPerValueByte * meanValueBytes;
    // The slow-request mechanism inflates the mean multiplicatively.
    cycles *= 1.0 + kSlowFraction * (kSlowMultiplier - 1.0);
    return machine.expectedServiceSeconds(cycles);
}

} // namespace server
} // namespace treadmill
