/**
 * @file
 * Request/response representation shared by clients and servers.
 *
 * A Request carries its own timeline (its span attempt). A Service
 * answers into one sink wired with the topology, so the request is all
 * that travels.
 */

#ifndef TREADMILL_SERVER_REQUEST_H_
#define TREADMILL_SERVER_REQUEST_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>

#include "obs/span.h"
#include "util/inline_function.h"
#include "util/logging.h"
#include "util/pool.h"
#include "util/types.h"

namespace treadmill {
namespace server {

/** Memcached-protocol operation type. */
enum class OpType { Get, Set };

/**
 * One in-flight request. Its wire-attempt identity and hop stamps are
 * the obs::AttemptSpan it derives from: every component that touches
 * the request stamps the simulated clock there, so any latency
 * decomposition the paper performs (client-side, network, server
 * residence, Fig 3) falls out of simple timestamp differences, and a
 * span records the attempt by copying that base.
 */
struct Request : obs::AttemptSpan {
    std::uint64_t connectionId = 0;
    std::uint64_t clientIndex = 0; ///< Which load-tester instance sent it.
    /** Every wire attempt gets a fresh seqId, but all attempts of one
     *  logical request share logicalSeqId and the original
     *  intendedSend, so clientLatencyUs() on whichever attempt
     *  completes first spans from the instant the open-loop schedule
     *  meant to issue the request (paper SII: latency includes
     *  everything the client waited through, retries included). */
    std::uint64_t logicalSeqId = 0;
    SimTime intendedSend = kNoTime; ///< Open-loop schedule instant.

    OpType op = OpType::Get;
    std::uint64_t keyId = 0;    ///< Key n; see wireKey().
    std::uint32_t keyBytes = 0; ///< Wire size of the key.
    std::uint32_t valueBytes = 0;   ///< SET payload size.
    std::uint32_t requestBytes = 0; ///< Wire size of the request packet.
    std::uint32_t responseBytes = 0; ///< Wire size of the response.
    bool hit = false;               ///< GET outcome.

    /** End-to-end latency as the load tester perceives it, in us. */
    double
    clientLatencyUs() const
    {
        return toMicros(clientReceive - intendedSend);
    }

    /** Server residence (NIC in to NIC out), in us. */
    double
    serverLatencyUs() const
    {
        return toMicros(nicDeparture - nicArrival);
    }
};

/** Room for the longest wire key: "key:" plus UINT64_MAX's 20 digits. */
constexpr std::size_t kWireKeyCapacity = 4 + 20;

/**
 * Format key id @p keyId's wire key -- "key:<n>", the bytes memcached
 * would see -- into @p buf, so no string is built per request.
 *
 * @return The key's bytes, a view into @p buf.
 */
inline std::string_view
wireKey(std::uint64_t keyId, char (&buf)[kWireKeyCapacity])
{
    std::memcpy(buf, "key:", 4);
    const auto end = std::to_chars(buf + 4, buf + sizeof(buf), keyId);
    return std::string_view(buf, static_cast<std::size_t>(end.ptr - buf));
}

/**
 * Arena of wire attempts, one per load-tester instance. The lifetime
 * rule: a Request * is valid from the make() that built the attempt
 * until its issuing client consumes the attempt's response, and the
 * client releases it exactly then, once. An attempt whose response
 * never comes back (lost on a link, refused by the balancer, dropped
 * by a crashed server, or in flight when the run ends) keeps its slot
 * until the arena goes. Every component between make() and the
 * response passes the plain pointer along; code that needs an attempt
 * after its response was consumed copies the Request.
 */
using RequestPool = util::Pool<Request>;

/**
 * Anything that accepts requests at its NIC and eventually answers.
 * Where answers go is fixed by the topology: the code that wires it
 * sets each service's sink once, so no per-request continuation
 * exists.
 */
class Service
{
  public:
    /** Takes each answered request. */
    using Sink = util::InlineFunction<void(Request *)>;

    virtual ~Service() = default;

    /** Send every answer to @p next; set before the first receive(). */
    void setSink(Sink next) { sink = std::move(next); }

    /**
     * Deliver @p request, already stamped with nicArrival. The service
     * hands it to its sink once the answer is ready to leave its NIC
     * (nicDeparture stamped).
     */
    virtual void receive(Request *request) = 0;

  protected:
    /** Hand the answered @p request to the wired sink. */
    void
    answer(Request *request)
    {
        TM_ASSERT(sink, "service answered before its sink was wired");
        sink(request);
    }

  private:
    Sink sink;
};

} // namespace server
} // namespace treadmill

#endif // TREADMILL_SERVER_REQUEST_H_
