/** @file Behaviour tests for the mcrouter model. */

#include "server/mcrouter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace treadmill {
namespace server {
namespace {

hw::HardwareConfig
perfConfig()
{
    hw::HardwareConfig cfg;
    cfg.dvfs = hw::DvfsGovernor::Performance;
    return cfg;
}

RequestPtr
makeRequest(std::uint64_t seq, SimTime nicArrival)
{
    auto req = std::make_shared<Request>();
    req->seqId = seq;
    req->connectionId = seq % 8;
    req->op = OpType::Get;
    req->keyId = seq;
    req->valueBytes = 64;
    req->nicArrival = nicArrival;
    return req;
}

/** A backend pool that answers every request after a fixed delay
 *  with a canned outcome. */
class FixedDelayPool : public Service
{
  public:
    FixedDelayPool(sim::Simulation &sim, SimDuration delay)
        : sim(sim), delay(delay)
    {
    }

    void
    receive(RequestPtr request) override
    {
        sim.schedule(delay, [this, request = std::move(request)]() mutable {
            request->hit = false;
            request->responseBytes = 48;
            answer(std::move(request));
        });
    }

  private:
    sim::Simulation &sim;
    SimDuration delay;
};

TEST(McrouterTest, RoutesAndResponds)
{
    sim::Simulation sim;
    hw::Machine machine(sim, perfConfig(), 1);
    McrouterServer router(machine, 1);

    RequestPtr response;
    router.setSink([&](RequestPtr r) { response = std::move(r); });
    router.receive(makeRequest(1, 0));
    sim.run();
    ASSERT_NE(response, nullptr);
    EXPECT_TRUE(response->hit);
    EXPECT_EQ(sim.metrics().counter("server.served").value(), 1u);
}

TEST(McrouterTest, LatencyIncludesBackendRoundTrip)
{
    sim::Simulation sim;
    hw::Machine machine(sim, perfConfig(), 1);
    McrouterServer router(machine, 1);

    RequestPtr response;
    router.setSink([&](RequestPtr r) { response = std::move(r); });
    router.receive(makeRequest(1, 0));
    sim.run();
    ASSERT_NE(response, nullptr);
    // Router CPU alone is ~12 us; with the backend wait we must be
    // clearly above the backend mean.
    EXPECT_GT(response->serverLatencyUs(),
              McrouterServer::kBackendMeanUs);
}

TEST(McrouterTest, BackendWaitDoesNotOccupyCore)
{
    sim::Simulation sim;
    hw::Machine machine(sim, perfConfig(), 1);
    McrouterServer router(machine, 1);

    // Two requests on the same connection: the second's deserialize
    // should start while the first waits on its backend.
    std::vector<RequestPtr> responses;
    router.setSink([&](RequestPtr r) { responses.push_back(std::move(r)); });
    for (std::uint64_t i = 0; i < 2; ++i) {
        auto req = makeRequest(i, 0);
        req->connectionId = 3;
        router.receive(std::move(req));
    }
    sim.run();
    ASSERT_EQ(responses.size(), 2u);
    // Both worker phases started before either backend wait ended: a
    // core held through the wait would start the second parse only
    // after the first reply was serialized.
    const SimTime lastStart =
        std::max(responses[0]->workerStart, responses[1]->workerStart);
    const SimTime firstEnd =
        std::min(responses[0]->workerEnd, responses[1]->workerEnd);
    EXPECT_LT(lastStart, firstEnd);
}

TEST(McrouterTest, TimestampsOrdered)
{
    sim::Simulation sim;
    hw::Machine machine(sim, perfConfig(), 4);
    McrouterServer router(machine, 4);

    RequestPtr response;
    router.setSink([&](RequestPtr r) { response = std::move(r); });
    sim.schedule(microseconds(3),
                 [&] { router.receive(makeRequest(9, sim.now())); });
    sim.run();
    ASSERT_NE(response, nullptr);
    EXPECT_LE(response->nicArrival, response->workerStart);
    EXPECT_LT(response->workerStart, response->workerEnd);
    EXPECT_EQ(response->workerEnd, response->nicDeparture);
}

TEST(McrouterTest, BackendPoolAnswersIntoTheSerializeStage)
{
    sim::Simulation sim;
    hw::Machine machine(sim, perfConfig(), 1);
    McrouterServer router(machine, 1);
    FixedDelayPool pool(sim, microseconds(300));
    router.setBackendPool(&pool);

    RequestPtr response;
    router.setSink([&](RequestPtr r) { response = std::move(r); });
    router.receive(makeRequest(1, 0));
    sim.run();

    // The pool's outcome is relayed (no modelled hit), its answer
    // re-entered the router after the pool's delay (counted from the
    // end of parsing, after workerStart), and the router serialized
    // it before the reply left.
    ASSERT_NE(response, nullptr);
    EXPECT_FALSE(response->hit);
    EXPECT_EQ(response->responseBytes, 48u);
    EXPECT_GT(response->routerReturn,
              response->workerStart + microseconds(300));
    EXPECT_LT(response->routerReturn, response->workerEnd);
    EXPECT_EQ(response->workerEnd, response->nicDeparture);
    EXPECT_EQ(sim.metrics().counter("server.served").value(), 1u);
}

TEST(McrouterTest, ExpectedServiceSmallerThanMemcached)
{
    sim::Simulation sim;
    hw::Machine machine(sim, perfConfig(), 1);
    McrouterServer router(machine, 1);
    // mcrouter touches memory much less: its sizing service time uses
    // the scaled stall.
    const double s = router.expectedServiceSeconds(64.0);
    EXPECT_GT(s, 5e-6);
    EXPECT_LT(s, 20e-6);
}

} // namespace
} // namespace server
} // namespace treadmill
