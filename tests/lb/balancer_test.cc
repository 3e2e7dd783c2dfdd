/** @file Load-balancer tier tests with synthetic backends: routing
 *  consistency, failover, the FCFS and power-of-two-choices picks,
 *  config validation, and metric-scope uniqueness. */

#include "lb/balancer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "server/request.h"
#include "sim/simulation.h"
#include "util/error.h"

namespace treadmill {
namespace lb {
namespace {

/** One synthetic backend: logs arrivals, answers after a fixed
 *  delay by reporting back to the balancer under its shard id, and
 *  can be switched dead at any time. */
struct FakeBackend {
    sim::Simulation *sim = nullptr;
    LoadBalancer *balancer = nullptr;
    std::uint32_t id = 0;
    SimDuration serviceTime = 0;
    bool alive = true;
    std::vector<std::uint64_t> servedSeqIds;

    LoadBalancer::Backend
    hook()
    {
        return LoadBalancer::Backend{
            [this](server::Request *req) {
                servedSeqIds.push_back(req->seqId);
                sim->schedule(serviceTime, [this, req] {
                    balancer->backendAnswered(id, req);
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

    explicit Cluster(BalancerConfig params, SimDuration delay = 0,
                     std::uint64_t seed = 1)
    {
        balancer = std::make_unique<LoadBalancer>(sim, params, seed);
        balancer->setSink([this](server::Request *resp) {
            completedSeqIds.push_back(resp->seqId);
        });
        for (std::uint32_t b = 0; b < params.backends; ++b) {
            auto backend = std::make_unique<FakeBackend>();
            backend->sim = &sim;
            backend->balancer = balancer.get();
            backend->id = b;
            backend->serviceTime = delay;
            balancer->addBackend(backend->hook());
            backends.push_back(std::move(backend));
        }
    }

    server::Request *
    makeRequest(std::uint64_t seq, std::uint64_t keyId)
    {
        server::Request *req = pool.make();
        req->seqId = seq;
        req->keyId = keyId;
        return req;
    }

    server::RequestPool pool;
    std::vector<std::uint64_t> completedSeqIds;

    void
    send(std::uint64_t seq, std::uint64_t keyId)
    {
        balancer->receive(makeRequest(seq, keyId));
    }

    /** Registry counter @p name: the one read path of every count. */
    std::uint64_t
    counter(const std::string &name)
    {
        return sim.metrics().counter(name).value();
    }

    /** Requests the balancer dispatched to backend @p b. */
    std::uint64_t
    dispatchedTo(std::uint32_t b)
    {
        return counter("lb.backend" + std::to_string(b) + ".dispatched");
    }

    /** The replica set of @p keyId, primary first. */
    std::vector<std::uint32_t>
    replicasOf(std::uint64_t keyId, std::uint32_t count) const
    {
        std::vector<std::uint32_t> out;
        balancer->hashRing().replicas(HashRing::hashKeyId(keyId), count,
                                      out);
        return out;
    }
};

/** The one key every request of the routing-consistency test uses. */
constexpr std::uint64_t kHotKey = 424242;

BalancerConfig
smallCluster(std::uint32_t backends)
{
    BalancerConfig p;
    p.backends = backends;
    return p;
}

TEST(BalancerTest, ValidatesConfiguration)
{
    BalancerConfig p;
    EXPECT_THROW(p.validate(), ConfigError); // zero backends

    p = smallCluster(2);
    p.replication = 3;
    EXPECT_THROW(p.validate(), ConfigError);

    p = smallCluster(2);
    p.replication = 0;
    EXPECT_THROW(p.validate(), ConfigError);
}

TEST(BalancerTest, RejectsOverAttachingBackends)
{
    sim::Simulation sim;
    LoadBalancer balancer(sim, smallCluster(1), 1);
    balancer.addBackend({[](server::Request *) {}, nullptr});
    EXPECT_THROW(balancer.addBackend({[](server::Request *) {}, nullptr}),
                 ConfigError);
}

TEST(BalancerTest, MetricScopeIsClaimedOncePerSimulation)
{
    sim::Simulation sim;
    LoadBalancer first(sim, smallCluster(2), 1);
    // A second balancer on the same registry would silently share
    // "lb.*" metric names; the scope claim turns that into an error.
    EXPECT_THROW(LoadBalancer(sim, smallCluster(2), 1), ConfigError);
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
    EXPECT_EQ(cluster.dispatchedTo(cluster.balancer->hashRing().lookup(
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
        EXPECT_GT(cluster.dispatchedTo(b), 0u);
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
    EXPECT_EQ(cluster.counter("lb.failovers"), 16u);
    EXPECT_EQ(cluster.counter("lb.unroutable"), 0u);
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
    EXPECT_EQ(cluster.counter("lb.unroutable"), 8u);
}

TEST(BalancerTest, FcfsAlwaysPicksThePrimary)
{
    auto params = smallCluster(4);
    params.replication = 3;
    // Backends hold every request, so the primary is the busiest
    // replica from the second request on; FCFS ignores load.
    Cluster cluster(params, milliseconds(1));
    const std::uint32_t primary = cluster.replicasOf(kHotKey, 3).front();
    for (std::uint64_t i = 0; i < 32; ++i)
        cluster.send(i, kHotKey);
    cluster.sim.run();

    for (std::uint32_t b = 0; b < 4; ++b)
        EXPECT_EQ(cluster.dispatchedTo(b), b == primary ? 32u : 0u)
            << "backend " << b;
    EXPECT_EQ(cluster.completedSeqIds.size(), 32u);
}

TEST(BalancerTest, PowerOfTwoSplitsAHeldBurstEvenly)
{
    auto params = smallCluster(2);
    params.replication = 2;
    params.policy = PolicyKind::PowerOfTwo;
    // Nothing answers before the burst ends. With two candidates both
    // are always sampled, so each pick goes to the emptier replica.
    Cluster cluster(params, milliseconds(1));
    for (std::uint64_t i = 0; i < 64; ++i)
        cluster.send(i, kHotKey);
    EXPECT_EQ(cluster.balancer->inflightOf(0), 32u);
    EXPECT_EQ(cluster.balancer->inflightOf(1), 32u);
    cluster.sim.run();

    EXPECT_EQ(cluster.dispatchedTo(0), 32u);
    EXPECT_EQ(cluster.dispatchedTo(1), 32u);
    EXPECT_EQ(cluster.completedSeqIds.size(), 64u);
}

TEST(BalancerTest, PowerOfTwoWithOneHealthyReplicaRoutesLikeFcfs)
{
    auto params = smallCluster(3);
    params.replication = 2;
    params.policy = PolicyKind::PowerOfTwo;
    Cluster cluster(params, milliseconds(1));
    const std::vector<std::uint32_t> replicas = cluster.replicasOf(1, 2);
    cluster.backends[replicas[1]]->alive = false;

    for (std::uint64_t i = 0; i < 16; ++i)
        cluster.send(i, 1);
    cluster.sim.run();

    // One candidate left: the primary takes everything, as under FCFS.
    EXPECT_EQ(cluster.dispatchedTo(replicas[0]), 16u);
    EXPECT_EQ(cluster.counter("lb.dispatched"), 16u);
    EXPECT_EQ(cluster.counter("lb.failovers"), 0u);
}

TEST(BalancerTest, PowerOfTwoIsDeterministicPerSeed)
{
    auto params = smallCluster(4);
    params.replication = 3;
    params.policy = PolicyKind::PowerOfTwo;
    Cluster a(params, microseconds(100), 123);
    Cluster b(params, microseconds(100), 123);
    for (std::uint64_t i = 0; i < 200; ++i) {
        a.send(i, i % 10);
        b.send(i, i % 10);
    }
    a.sim.run();
    b.sim.run();
    for (std::uint32_t k = 0; k < 4; ++k)
        EXPECT_EQ(a.backends[k]->servedSeqIds, b.backends[k]->servedSeqIds)
            << "backend " << k;
}

} // namespace
} // namespace lb
} // namespace treadmill
