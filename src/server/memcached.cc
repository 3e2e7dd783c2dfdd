#include "server/memcached.h"

#include <cmath>
#include <optional>
#include <utility>

#include "util/logging.h"

namespace treadmill {
namespace server {

MemcachedServer::MemcachedServer(hw::Machine &machine_,
                                 const MemcachedParams &params_,
                                 std::uint64_t seed,
                                 const std::string &scope,
                                 bool backendRole_)
    : machine(machine_), params(params_), kv(params_.storeCapacityBytes),
      rng(Rng(0x6d656d63616368ull).substream(seed)),
      jitter(-0.5 * params_.workJitterSigma * params_.workJitterSigma,
             params_.workJitterSigma),
      metrics(machine_.simulation().metrics(), scope),
      backendRole(backendRole_)
{
}

void
MemcachedServer::receive(RequestPtr request)
{
    TM_ASSERT(backendRole ? request->backendNicArrival != kNoTime
                          : request->nicArrival != kNoTime,
              "request must be stamped with its NIC arrival");

    const unsigned irqCore =
        machine.nic().irqCore(request->connectionId);
    const unsigned workerIdx =
        machine.workerOfConnection(request->connectionId);
    const unsigned workerCoreId = machine.workerCore(workerIdx);
    const bool crossSocket =
        machine.spec().socketOf(irqCore) !=
        machine.spec().socketOf(workerCoreId);

    // Stage 1: interrupt handling on the RSS-steered core.
    hw::WorkItem irq;
    // An injected interrupt storm multiplies handling cost (1.0 when
    // healthy, which is an exact identity on the cycle count).
    irq.cycles = machine.spec().irqCycles * machine.nic().irqLoadFactor();
    irq.fixedStall = 0;
    irq.allowTurbo = true;
    irq.done = [this, request = std::move(request),
                crossSocket](SimTime, SimTime) mutable {
        executeOnWorker(std::move(request), crossSocket);
    };
    machine.submit(irqCore, std::move(irq));
}

void
MemcachedServer::executeOnWorker(RequestPtr request, bool crossSocket)
{
    const unsigned workerIdx =
        machine.workerOfConnection(request->connectionId);
    const unsigned coreId = machine.workerCore(workerIdx);

    double cycles = request->op == OpType::Get ? params.getCycles
                                               : params.setCycles;
    cycles += params.cyclesPerValueByte *
              static_cast<double>(request->valueBytes);
    cycles *= jitter.sample(rng);
    if (params.slowFraction > 0.0 &&
        rng.nextDouble() < params.slowFraction) {
        cycles *= params.slowMultiplier;
    }

    hw::WorkItem work;
    work.cycles = cycles;
    work.fixedStall = machine.memoryStall(request->connectionId);
    if (crossSocket)
        work.fixedStall += machine.spec().crossSocketTransfer;
    work.allowTurbo = true;
    work.done = [this, request = std::move(request)](SimTime start,
                                                     SimTime end) mutable {
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
            kv.set(request->keyId, request->valueBytes);
            request->hit = true;
            request->responseBytes = 48; // STORED + headers
        } else {
            const std::optional<std::uint32_t> stored =
                kv.find(request->keyId);
            request->hit = stored.has_value();
            request->responseBytes = 48 + stored.value_or(0);
        }

        ++servedCount;
        if (backendRole) {
            request->backendNicDeparture = end;
            metrics.onServed(*request, request->backendNicArrival,
                             start, end);
        } else {
            request->nicDeparture = end;
            metrics.onServed(*request, request->nicArrival, start, end);
        }
        answer(std::move(request));
    };
    machine.submit(coreId, std::move(work));
}

double
MemcachedServer::expectedServiceSeconds(double meanValueBytes) const
{
    double cycles =
        params.getCycles + params.cyclesPerValueByte * meanValueBytes;
    // The slow-request mechanism inflates the mean multiplicatively.
    cycles *= 1.0 + params.slowFraction * (params.slowMultiplier - 1.0);
    return machine.expectedServiceSeconds(cycles);
}

} // namespace server
} // namespace treadmill
