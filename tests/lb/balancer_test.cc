/** @file Load-balancer tier tests with synthetic backends: routing
 *  consistency, failover, saturation queueing, EDF dispatch order,
 *  config validation, and metric-scope uniqueness. */

#include "lb/balancer.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "server/request.h"
#include "sim/simulation.h"
#include "util/error.h"

namespace treadmill {
namespace lb {
namespace {

/** One synthetic backend: logs arrivals, answers after a fixed
 *  delay, and can be switched dead at any time. */
struct FakeBackend {
    sim::Simulation *sim = nullptr;
    SimDuration serviceTime = 0;
    bool alive = true;
    std::vector<std::uint64_t> servedSeqIds;

    LoadBalancer::Backend
    hook()
    {
        return LoadBalancer::Backend{
            [this](server::RequestPtr req, server::RespondFn respond) {
                servedSeqIds.push_back(req->seqId);
                sim->schedule(serviceTime,
                              [req, respond = std::move(respond)] {
                                  respond(req);
                              });
            },
            [this] { return alive; }};
    }
};

/** A balancer wired to @p n fake backends answering after @p delay. */
struct Cluster {
    sim::Simulation sim;
    std::vector<std::unique_ptr<FakeBackend>> backends;
    std::unique_ptr<LoadBalancer> balancer;

    explicit Cluster(BalancerParams params, SimDuration delay = 0)
    {
        balancer = std::make_unique<LoadBalancer>(sim, params);
        for (std::uint32_t b = 0; b < params.backends; ++b) {
            auto backend = std::make_unique<FakeBackend>();
            backend->sim = &sim;
            backend->serviceTime = delay;
            balancer->addBackend(backend->hook());
            backends.push_back(std::move(backend));
        }
    }

    server::RequestPtr
    makeRequest(std::uint64_t seq, std::uint64_t keyId)
    {
        auto req = pool.make();
        req->seqId = seq;
        req->keyId = keyId;
        return req;
    }

    server::RequestPool pool;
    std::vector<std::uint64_t> completedSeqIds;

    void
    send(std::uint64_t seq, std::uint64_t keyId)
    {
        balancer->receive(makeRequest(seq, keyId),
                          [this](const server::RequestPtr &resp) {
                              completedSeqIds.push_back(resp->seqId);
                          });
    }
};

/** The one key every request of the routing-consistency test uses. */
constexpr std::uint64_t kHotKey = 424242;

BalancerParams
smallCluster(std::uint32_t backends)
{
    BalancerParams p;
    p.backends = backends;
    p.vnodesPerBackend = 64;
    return p;
}

TEST(BalancerTest, ValidatesConfiguration)
{
    BalancerParams p;
    EXPECT_THROW(p.validate(), ConfigError); // zero backends

    p = smallCluster(2);
    p.replication = 3;
    EXPECT_THROW(p.validate(), ConfigError);

    p = smallCluster(2);
    p.replication = 0;
    EXPECT_THROW(p.validate(), ConfigError);

    p = smallCluster(2);
    p.policy = PolicyKind::Edf;
    p.edfSlackUs = 0.0;
    EXPECT_THROW(p.validate(), ConfigError);
}

TEST(BalancerTest, RejectsOverAttachingBackends)
{
    sim::Simulation sim;
    LoadBalancer balancer(sim, smallCluster(1));
    balancer.addBackend(
        {[](server::RequestPtr, server::RespondFn) {}, nullptr});
    EXPECT_THROW(balancer.addBackend({[](server::RequestPtr,
                                         server::RespondFn) {},
                                      nullptr}),
                 ConfigError);
}

TEST(BalancerTest, MetricScopeIsClaimedOncePerSimulation)
{
    sim::Simulation sim;
    LoadBalancer first(sim, smallCluster(2));
    // A second balancer on the same registry would silently share
    // "lb.*" metric names; the scope claim turns that into an error.
    EXPECT_THROW(LoadBalancer(sim, smallCluster(2)), ConfigError);
}

TEST(BalancerTest, SameKeyAlwaysRoutesToTheSameBackend)
{
    Cluster cluster(smallCluster(4));
    for (std::uint64_t i = 0; i < 64; ++i)
        cluster.send(i, kHotKey);
    cluster.sim.run();

    std::size_t nonEmpty = 0;
    for (const auto &backend : cluster.backends) {
        if (!backend->servedSeqIds.empty()) {
            ++nonEmpty;
            EXPECT_EQ(backend->servedSeqIds.size(), 64u);
        }
    }
    EXPECT_EQ(nonEmpty, 1u);
    EXPECT_EQ(cluster.completedSeqIds.size(), 64u);
    // The stamp the trace exporter and attribution read.
    EXPECT_EQ(cluster.balancer->dispatchedTo(
                  cluster.balancer->hashRing().lookup(
                      HashRing::hashKeyId(kHotKey))),
              64u);
}

TEST(BalancerTest, SpreadsDistinctKeysAcrossBackends)
{
    Cluster cluster(smallCluster(4));
    for (std::uint64_t i = 0; i < 400; ++i)
        cluster.send(i, i);
    cluster.sim.run();
    for (std::uint32_t b = 0; b < 4; ++b)
        EXPECT_GT(cluster.balancer->dispatchedTo(b), 0u);
}

TEST(BalancerTest, FailsOverPastADeadPrimary)
{
    auto params = smallCluster(3);
    params.replication = 2;
    Cluster cluster(params);

    const std::uint32_t primary =
        cluster.balancer->hashRing().lookup(HashRing::hashKeyId(1));
    cluster.backends[primary]->alive = false;

    for (std::uint64_t i = 0; i < 16; ++i)
        cluster.send(i, 1);
    cluster.sim.run();

    EXPECT_TRUE(cluster.backends[primary]->servedSeqIds.empty());
    EXPECT_EQ(cluster.completedSeqIds.size(), 16u);
    EXPECT_EQ(cluster.balancer->failovers(), 16u);
    EXPECT_EQ(cluster.balancer->unroutable(), 0u);
}

TEST(BalancerTest, DropsWhenEveryReplicaIsDown)
{
    auto params = smallCluster(2);
    params.replication = 1;
    Cluster cluster(params);

    const std::uint32_t primary =
        cluster.balancer->hashRing().lookup(HashRing::hashKeyId(1));
    cluster.backends[primary]->alive = false;

    for (std::uint64_t i = 0; i < 8; ++i)
        cluster.send(i, 1);
    cluster.sim.run();

    // No replica, no answer: the drop is counted, never responded.
    EXPECT_TRUE(cluster.completedSeqIds.empty());
    EXPECT_EQ(cluster.balancer->unroutable(), 8u);
}

TEST(BalancerTest, SaturatedBackendsQueueAndDrainInOrder)
{
    auto params = smallCluster(1);
    params.maxInflightPerBackend = 1;
    Cluster cluster(params, microseconds(100));

    cluster.send(0, 10);
    cluster.send(1, 11);
    cluster.send(2, 12);
    EXPECT_EQ(cluster.balancer->queueDepth(), 2u);
    EXPECT_EQ(cluster.balancer->queued(), 2u);
    cluster.sim.run();

    EXPECT_EQ(cluster.balancer->queueDepth(), 0u);
    const std::vector<std::uint64_t> expected{0, 1, 2};
    EXPECT_EQ(cluster.backends[0]->servedSeqIds, expected);
    EXPECT_EQ(cluster.completedSeqIds, expected);
    EXPECT_EQ(cluster.balancer->inflightOf(0), 0u);
}

TEST(BalancerTest, EdfDispatchesTheTightestDeadlineFirst)
{
    auto params = smallCluster(1);
    params.maxInflightPerBackend = 1;
    params.policy = PolicyKind::Edf;
    params.edfSlackUs = 1000.0;
    Cluster cluster(params, microseconds(100));

    auto sendWithIntended = [&](std::uint64_t seq, SimTime intended) {
        auto req = cluster.makeRequest(seq, seq);
        req->intendedSend = intended;
        cluster.balancer->receive(
            std::move(req), [&](const server::RequestPtr &resp) {
                cluster.completedSeqIds.push_back(resp->seqId);
            });
    };

    sendWithIntended(0, 0);                  // occupies the backend
    sendWithIntended(1, milliseconds(50));   // loose deadline, queued
    sendWithIntended(2, milliseconds(10));   // tight deadline, queued
    cluster.sim.run();

    // FCFS would serve 1 before 2; EDF reorders by deadline.
    const std::vector<std::uint64_t> expected{0, 2, 1};
    EXPECT_EQ(cluster.backends[0]->servedSeqIds, expected);
}

} // namespace
} // namespace lb
} // namespace treadmill
