/**
 * @file
 * A network link with bandwidth, propagation delay, and FIFO queueing.
 *
 * Links are the source of the paper's "network latency" component
 * (Fig 3): when a link's offered load approaches its bandwidth, packets
 * queue behind each other and the measured latency inflates.
 */

#ifndef TREADMILL_NET_LINK_H_
#define TREADMILL_NET_LINK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "net/packet.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "util/inline_function.h"
#include "util/pool.h"
#include "util/rng.h"
#include "util/types.h"

namespace treadmill {
namespace net {

/**
 * Callback invoked when a packet finishes crossing a link.
 *
 * Small-buffer optimized: the largest delivery closure on the hot
 * path, the experiment harness's hop (a pointer, the arrival field, a
 * request pointer and a 16-byte next step), fits the 48 bytes, so
 * handing a packet to a link allocates nothing.
 */
using DeliveryFn = util::InlineFunction<void(const Packet &), 48>;

/**
 * A point-to-point link modeled as a deterministic single server:
 * serialization time = bytes / bandwidth, plus propagation delay.
 * Packets that arrive while the transmitter is busy queue FIFO.
 */
class Link
{
  public:
    /**
     * @param sim Owning simulation.
     * @param name Diagnostic name ("client0-uplink").
     * @param gbps Bandwidth in gigabits per second.
     * @param propagation One-way propagation delay.
     */
    Link(sim::Simulation &sim, std::string name, double gbps,
         SimDuration propagation);

    Link(const Link &) = delete;
    Link &operator=(const Link &) = delete;

    /**
     * Send @p packet; @p onDelivered fires when it reaches the far end.
     *
     * @return true if the packet was accepted; false if injected loss
     *         dropped it (the callback is destroyed without firing, so
     *         callers holding per-packet state can release it).
     */
    bool send(const Packet &packet, DeliveryFn onDelivered);

    /** Fraction of elapsed time the transmitter has been busy. */
    double utilization() const;

    const std::string &name() const { return linkName; }

    /** @name Fault-injection hooks
     * A healthy link never allocates fault state, so the only cost of
     * the fault subsystem on an un-faulted run is one null-pointer
     * check per send() -- no extra events, draws, or metric updates.
     * @{
     */
    /**
     * Arm the fault hooks with a private randomness stream for loss
     * draws (derived from the run seed by the injector, so faulted
     * runs stay seed-isolated). Idempotent.
     */
    void armFaults(const Rng &lossRng);

    /** Drop each subsequent packet with probability @p p (armed only). */
    void setLossProbability(double p);
    /** @} */

  private:
    /** Serialization time for @p bytes at this link's bandwidth. */
    SimDuration transmitTime(std::uint32_t bytes) const;

    /** An accepted packet awaiting its delivery instant. Pooled so
     *  the delivery event captures only (this, slot index): 16 bytes,
     *  well inside the event's inline buffer. */
    struct PendingDelivery {
        Packet packet;
        DeliveryFn deliver;
    };

    /** Mutable fault state, allocated only when faults are armed. */
    struct FaultState {
        Rng lossRng{1};
        double lossProbability = 0.0;
    };

    sim::Simulation &sim;
    std::string linkName;
    double bytesPerNs;
    SimDuration propagation;
    SimTime transmitterFreeAt = 0;
    SimDuration busyTime = 0;
    std::size_t inFlightCount = 0;
    util::RawPool<PendingDelivery> pendingPool;
    std::unique_ptr<FaultState> faults;

    /** @name Registry handles (resolved once at construction)
     * @{
     */
    obs::Counter &packetsCounter;
    obs::Counter &bytesCounter;
    obs::Counter &droppedCounter;
    obs::Histogram &queueWaitHist;
    obs::Gauge &inFlightGauge;
    obs::Gauge &utilizationGauge;
    /** @} */
};

} // namespace net
} // namespace treadmill

#endif // TREADMILL_NET_LINK_H_
