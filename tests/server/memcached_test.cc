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

Request *
makeRequest(RequestPool &pool, std::uint64_t seq, OpType op,
            std::uint64_t keyId, std::uint32_t valueBytes,
            SimTime nicArrival)
{
    Request *req = pool.make();
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
            [this](Request *r) { responses.push_back(r); });
    }

    /** The latest answer, null before the first. */
    const Request *
    lastResponse() const
    {
        return responses.empty() ? nullptr : responses.back();
    }

    sim::Simulation sim;
    hw::Machine machine;
    MemcachedServer server;
    RequestPool pool;
    std::vector<Request *> responses;
};

TEST_F(MemcachedTest, SetThenGetHits)
{
    server.receive(makeRequest(pool, 1, OpType::Set, 1, 100, 0));
    sim.run();
    server.receive(makeRequest(pool, 2, OpType::Get, 1, 0, sim.now()));
    sim.run();

    ASSERT_EQ(responses.size(), 2u);
    EXPECT_TRUE(responses[0]->hit); // SET acknowledged
    EXPECT_TRUE(responses[1]->hit); // GET found it
    EXPECT_EQ(responses[1]->responseBytes, 48u + 100u);
    EXPECT_EQ(sim.metrics().counter("server.served").value(), 2u);
}

TEST_F(MemcachedTest, HitsAndMissesCountGetsOnly)
{
    // A mixed stream: every third request SETs key k % 5 and the rest
    // GET key k % 7, so GETs both hit and miss.
    std::uint64_t gets = 0;
    std::uint64_t getHits = 0;
    for (std::uint64_t k = 0; k < 30; ++k) {
        const bool set = k % 3 == 0;
        server.receive(makeRequest(pool, k + 1,
                                   set ? OpType::Set : OpType::Get,
                                   set ? k % 5 : k % 7, 64, sim.now()));
        sim.run();
        if (!set) {
            ++gets;
            getHits += lastResponse()->hit ? 1 : 0;
        }
    }
    const std::uint64_t hits = sim.metrics().counter("server.hits").value();
    const std::uint64_t misses =
        sim.metrics().counter("server.misses").value();
    EXPECT_EQ(hits + misses, gets);
    EXPECT_EQ(hits, getHits);
    EXPECT_GT(hits, 0u);
    EXPECT_GT(misses, 0u);
    EXPECT_EQ(sim.metrics().counter("server.served").value(), 30u);
}

TEST_F(MemcachedTest, EmptyValueIsAHit)
{
    server.receive(makeRequest(pool, 1, OpType::Set, 7, 0, 0));
    sim.run();
    server.receive(makeRequest(pool, 2, OpType::Get, 7, 0, sim.now()));
    sim.run();

    ASSERT_EQ(responses.size(), 2u);
    EXPECT_TRUE(responses[1]->hit);
    EXPECT_EQ(responses[1]->responseBytes, 48u);
}

TEST_F(MemcachedTest, GetMissOnUnknownKey)
{
    server.receive(makeRequest(pool, 1, OpType::Get, 999, 0, 0));
    sim.run();
    const Request *response = lastResponse();
    ASSERT_NE(response, nullptr);
    EXPECT_FALSE(response->hit);
    EXPECT_EQ(response->responseBytes, 48u);
}

TEST_F(MemcachedTest, TimestampsAreOrdered)
{
    server.receive(makeRequest(pool, 1, OpType::Get, 7, 0, 0));
    sim.run();
    const Request *response = lastResponse();
    ASSERT_NE(response, nullptr);
    EXPECT_LE(response->nicArrival, response->workerStart);
    EXPECT_LT(response->workerStart, response->workerEnd);
    EXPECT_EQ(response->workerEnd, response->nicDeparture);
}

TEST_F(MemcachedTest, ServerLatencyIsPositiveAndPlausible)
{
    server.receive(makeRequest(pool, 1, OpType::Get, 7, 0, 0));
    sim.run();
    const Request *response = lastResponse();
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
        Request *req = makeRequest(pool, 100 + i, OpType::Get, 7, 0, 0);
        req->connectionId = 7;
        server.receive(req);
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
    RequestPool pool;
    server.setSink([&](Request *r) {
        if (r->op == OpType::Get) {
            hits += r->hit;
            getBytes += r->responseBytes;
        }
    });

    // Populate 100 keys, then read them all back.
    for (std::uint64_t i = 0; i < 100; ++i)
        server.receive(
            makeRequest(pool, i, OpType::Set, i, 64, sim.now()));
    sim.run();
    for (std::uint64_t i = 0; i < 100; ++i)
        server.receive(
            makeRequest(pool, 1000 + i, OpType::Get, i, 0, sim.now()));
    sim.run();
    EXPECT_EQ(hits, 100);
    EXPECT_EQ(server.store().size(), 100u);
    // Each hit answers with the 64 bytes its key's SET stored.
    EXPECT_EQ(getBytes, 100u * (48u + 64u));
}

} // namespace
} // namespace server
} // namespace treadmill
