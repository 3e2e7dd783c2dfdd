/** @file Behaviour tests for the Memcached server model. */

#include "server/memcached.h"

#include <gtest/gtest.h>

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
makeRequest(std::uint64_t seq, OpType op, std::uint64_t keyId,
            std::uint32_t valueBytes, SimTime nicArrival)
{
    auto req = std::make_shared<Request>();
    req->seqId = seq;
    req->connectionId = seq % 16;
    req->op = op;
    req->keyId = keyId;
    req->valueBytes = valueBytes;
    req->requestBytes = 80 + (op == OpType::Set ? valueBytes : 0);
    req->nicArrival = nicArrival;
    return req;
}

/** A server whose sink collects every answer, in answer order. */
class MemcachedTest : public ::testing::Test
{
  protected:
    MemcachedTest()
        : machine(sim, perfConfig(), 1),
          server(machine, 1)
    {
        server.setSink(
            [this](RequestPtr r) { responses.push_back(std::move(r)); });
    }

    /** The latest answer, null before the first. */
    RequestPtr
    lastResponse() const
    {
        return responses.empty() ? nullptr : responses.back();
    }

    sim::Simulation sim;
    hw::Machine machine;
    MemcachedServer server;
    std::vector<RequestPtr> responses;
};

TEST_F(MemcachedTest, SetThenGetHits)
{
    server.receive(makeRequest(1, OpType::Set, 1, 100, 0));
    sim.run();
    server.receive(makeRequest(2, OpType::Get, 1, 0, sim.now()));
    sim.run();

    ASSERT_EQ(responses.size(), 2u);
    EXPECT_TRUE(responses[0]->hit); // SET acknowledged
    EXPECT_TRUE(responses[1]->hit); // GET found it
    EXPECT_EQ(responses[1]->responseBytes, 48u + 100u);
    EXPECT_EQ(server.served(), 2u);
}

TEST_F(MemcachedTest, EmptyValueIsAHit)
{
    server.receive(makeRequest(1, OpType::Set, 7, 0, 0));
    sim.run();
    server.receive(makeRequest(2, OpType::Get, 7, 0, sim.now()));
    sim.run();

    ASSERT_EQ(responses.size(), 2u);
    EXPECT_TRUE(responses[1]->hit);
    EXPECT_EQ(responses[1]->responseBytes, 48u);
}

TEST_F(MemcachedTest, GetMissOnUnknownKey)
{
    server.receive(makeRequest(1, OpType::Get, 999, 0, 0));
    sim.run();
    const RequestPtr response = lastResponse();
    ASSERT_NE(response, nullptr);
    EXPECT_FALSE(response->hit);
    EXPECT_EQ(response->responseBytes, 48u);
}

TEST_F(MemcachedTest, TimestampsAreOrdered)
{
    server.receive(makeRequest(1, OpType::Get, 7, 0, 0));
    sim.run();
    const RequestPtr response = lastResponse();
    ASSERT_NE(response, nullptr);
    EXPECT_LE(response->nicArrival, response->workerStart);
    EXPECT_LT(response->workerStart, response->workerEnd);
    EXPECT_EQ(response->workerEnd, response->nicDeparture);
}

TEST_F(MemcachedTest, ServerLatencyIsPositiveAndPlausible)
{
    server.receive(makeRequest(1, OpType::Get, 7, 0, 0));
    sim.run();
    const RequestPtr response = lastResponse();
    ASSERT_NE(response, nullptr);
    const double us = response->serverLatencyUs();
    // irq (~1.4us) + worker (~8us) + memory stalls + work jitter:
    // single digits to tens of microseconds with no queueing.
    EXPECT_GT(us, 5.0);
    EXPECT_LT(us, 120.0);
}

TEST_F(MemcachedTest, ConcurrentRequestsOnOneConnectionQueue)
{
    // Same connection -> same worker; back-to-back requests must not
    // overlap on the worker core.
    for (std::uint64_t i = 0; i < 4; ++i) {
        auto req = makeRequest(100 + i, OpType::Get, 7, 0, 0);
        req->connectionId = 7;
        server.receive(std::move(req));
    }
    sim.run();
    ASSERT_EQ(responses.size(), 4u);
    for (std::size_t i = 1; i < responses.size(); ++i)
        EXPECT_GE(responses[i]->workerStart,
                  responses[i - 1]->workerEnd);
}

TEST_F(MemcachedTest, ExpectedServiceSizingIsReasonable)
{
    const double s = server.expectedServiceSeconds(100.0);
    EXPECT_GT(s, 5e-6);
    EXPECT_LT(s, 25e-6);
}

TEST(MemcachedStandaloneTest, StoreStateSurvivesAcrossRequests)
{
    sim::Simulation sim;
    hw::Machine machine(sim, perfConfig(), 2);
    MemcachedServer server(machine, 2);
    int hits = 0;
    std::uint64_t getBytes = 0;
    server.setSink([&](RequestPtr r) {
        if (r->op == OpType::Get) {
            hits += r->hit;
            getBytes += r->responseBytes;
        }
    });

    // Populate 100 keys, then read them all back.
    for (std::uint64_t i = 0; i < 100; ++i)
        server.receive(makeRequest(i, OpType::Set, i, 64, sim.now()));
    sim.run();
    for (std::uint64_t i = 0; i < 100; ++i)
        server.receive(makeRequest(1000 + i, OpType::Get, i, 0, sim.now()));
    sim.run();
    EXPECT_EQ(hits, 100);
    EXPECT_EQ(server.store().size(), 100u);
    // Each hit answers with the 64 bytes its key's SET stored.
    EXPECT_EQ(getBytes, 100u * (48u + 64u));
}

} // namespace
} // namespace server
} // namespace treadmill
