#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "des/parallel.hpp"
#include "net/fault.hpp"
#include "net/partition.hpp"
#include "net/topo_factory.hpp"
#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

// ---------------------------------------------------------------------------
// partitionShards: the node -> shard mapping of the parallel engine.
// ---------------------------------------------------------------------------

// The Fig. 6 world's graph: Rocketfuel-like backbone (79 core routers, two
// edge routers each, 5 ms edge-core links, 1-20 ms core links) and 400 hosts
// on 1 ms links, built from the same generator and seed as runGCopssTrace.
struct Fig6Graph {
  explicit Fig6Graph(std::uint64_t seed = 1) {
    Rng rng(seed);
    const RocketfuelTopology rf = makeRocketfuelLike(topo, rng);
    hosts = attachHosts(topo, rf.edge, 400, rng);
  }
  Topology topo;
  std::vector<NodeId> hosts;
};

bool isCut(const ShardPartition& p, const Topology::Link& l) {
  return p.shardOf[static_cast<std::size_t>(l.a)] != p.shardOf[static_cast<std::size_t>(l.b)];
}

SimTime minCutDelay(const Topology& topo, const ShardPartition& p) {
  SimTime m = INT64_MAX;
  for (const Topology::Link& l : topo.links()) {
    if (isCut(p, l)) m = std::min(m, l.delay);
  }
  return m;
}

TEST(ShardPartition, Fig6BackboneNeverCutsAHostLink) {
  const Fig6Graph g;
  const std::set<NodeId> hosts(g.hosts.begin(), g.hosts.end());
  for (std::size_t k : {2u, 3u, 4u, 8u}) {
    const ShardPartition p = partitionShards(g.topo, k);
    ASSERT_EQ(p.shardOf.size(), g.topo.nodeCount());
    std::size_t cut = 0;
    for (const Topology::Link& l : g.topo.links()) {
      if (!isCut(p, l)) continue;
      ++cut;
      EXPECT_FALSE(hosts.count(l.a) || hosts.count(l.b)) << "k=" << k << ": host link cut";
    }
    EXPECT_GT(cut, 0u) << "k=" << k << ": the backbone must actually be split";
    EXPECT_GT(p.lookahead, ms(1)) << "k=" << k;
  }
}

TEST(ShardPartition, LookaheadIsTheMinimumCutLinkDelay) {
  const Fig6Graph g;
  for (std::size_t k = 1; k <= 6; ++k) {
    const ShardPartition p = partitionShards(g.topo, k);
    EXPECT_EQ(p.lookahead, minCutDelay(g.topo, p)) << "k=" << k;
  }
  // One shard cuts nothing: the lookahead is unbounded.
  const ShardPartition one = partitionShards(g.topo, 1);
  EXPECT_EQ(one.lookahead, ParallelSimulator::kUnbounded);
  for (std::size_t s : one.shardOf) EXPECT_EQ(s, 0u);
}

TEST(ShardPartition, IsAPureFunctionOfTopologyAndShardCount) {
  const Fig6Graph a;
  const Fig6Graph b;
  // The same graph with its links added in another order.
  Topology shuffled;
  for (std::size_t v = 0; v < a.topo.nodeCount(); ++v) {
    shuffled.addNode(a.topo.label(static_cast<NodeId>(v)));
  }
  std::vector<Topology::Link> links = a.topo.links();
  Rng rng(7);
  rng.shuffle(links);
  for (const Topology::Link& l : links) shuffled.addLink(l.b, l.a, l.delay, l.bandwidthBps);

  for (std::size_t k : {2u, 3u, 4u}) {
    const ShardPartition pa = partitionShards(a.topo, k);
    EXPECT_EQ(pa.shardOf, partitionShards(a.topo, k).shardOf) << "k=" << k;
    EXPECT_EQ(pa.shardOf, partitionShards(b.topo, k).shardOf) << "k=" << k;
    const ShardPartition ps = partitionShards(shuffled, k);
    EXPECT_EQ(pa.shardOf, ps.shardOf) << "k=" << k << ": link order leaked into the mapping";
    EXPECT_EQ(pa.lookahead, ps.lookahead) << "k=" << k;
  }
}

TEST(ShardPartition, NoShardIsEmptyWhenClustersSuffice) {
  // Eight 1 ms clusters of three nodes joined by 5 ms links, then worlds
  // with fewer nodes than shards.
  Topology topo;
  std::vector<NodeId> hubs;
  for (int c = 0; c < 8; ++c) {
    const NodeId hub = topo.addNode();
    topo.addLink(hub, topo.addNode(), ms(1));
    topo.addLink(hub, topo.addNode(), ms(1));
    if (!hubs.empty()) topo.addLink(hubs.back(), hub, ms(5));
    hubs.push_back(hub);
  }
  for (std::size_t k = 1; k <= 8; ++k) {
    const ShardPartition p = partitionShards(topo, k);
    std::vector<std::size_t> load(k, 0);
    for (std::size_t s : p.shardOf) {
      ASSERT_LT(s, k);
      ++load[s];
    }
    for (std::size_t s = 0; s < k; ++s) EXPECT_GT(load[s], 0u) << "k=" << k << " shard " << s;
  }
  // 2 nodes, 4 shards: both nodes get a shard of their own.
  Topology pair;
  pair.addLink(pair.addNode(), pair.addNode(), ms(1));
  const ShardPartition p = partitionShards(pair, 4);
  EXPECT_NE(p.shardOf[0], p.shardOf[1]);
  EXPECT_EQ(p.lookahead, ms(1));
}

TEST(ShardPartition, ShardsStayWithinFivePercentOfAFairShare) {
  const Fig6Graph g;
  for (std::size_t k : {2u, 3u, 4u}) {
    const ShardPartition p = partitionShards(g.topo, k);
    std::vector<std::size_t> load(k, 0);
    for (std::size_t s : p.shardOf) ++load[s];
    const double fair = static_cast<double>(g.topo.nodeCount()) / static_cast<double>(k);
    EXPECT_LE(static_cast<double>(*std::max_element(load.begin(), load.end())), fair * 1.05)
        << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Network::enableParallel / setObserver preconditions: checked errors in
// every build type, not asserts.
// ---------------------------------------------------------------------------

TEST(ParallelPreconditions, ObserverOnAParallelNetworkThrows) {
  LineWorld w(4);
  ParallelSimulator psim(*w.sim, ParallelSimulator::Options{2});
  // The fixture's invariant checker is an observer.
  EXPECT_THROW(w.net->enableParallel(psim), std::logic_error);
  w.checker.reset();
  w.net->enableParallel(psim);
  PacketObserver tap;
  EXPECT_THROW(w.net->setObserver(&tap), std::logic_error);
  EXPECT_EQ(w.net->observer(), nullptr);
}

TEST(ParallelPreconditions, GlobalLaneMustBeTheNetworksSimulator) {
  LineWorld w(4);
  w.checker.reset();
  Simulator other;
  ParallelSimulator psim(other, ParallelSimulator::Options{2});
  EXPECT_THROW(w.net->enableParallel(psim), std::logic_error);
  EXPECT_FALSE(w.net->parallelEnabled());
}

TEST(ParallelPreconditions, FaultPlanWithoutIndependentStreamsThrows) {
  FaultPlan shared;
  shared.loseEverywhere(0.01);
  {
    LineWorld w(4);
    w.checker.reset();
    w.net->applyFaultPlan(shared);
    ParallelSimulator psim(*w.sim, ParallelSimulator::Options{2});
    EXPECT_THROW(w.net->enableParallel(psim), std::logic_error);
  }
  {
    // The same plan installed after the switch.
    LineWorld w(4);
    w.checker.reset();
    ParallelSimulator psim(*w.sim, ParallelSimulator::Options{2});
    w.net->enableParallel(psim);
    EXPECT_THROW(w.net->applyFaultPlan(shared), std::logic_error);
    EXPECT_FALSE(w.net->hasFaultPlan());
    FaultPlan lanes = shared;
    lanes.withIndependentStreams();
    w.net->applyFaultPlan(lanes);
    EXPECT_TRUE(w.net->hasFaultPlan());
  }
}

TEST(ParallelPreconditions, LookaheadAboveTheMinimumCutLinkDelayThrows) {
  LineWorld w(4);  // 1 ms links throughout: any cut is a 1 ms cut
  w.checker.reset();
  ParallelSimulator psim(*w.sim, ParallelSimulator::Options{2});
  psim.setLookahead(ms(5));
  EXPECT_THROW(w.net->enableParallel(psim), std::logic_error);

  LineWorld ok(4);
  ok.checker.reset();
  ParallelSimulator derived(*ok.sim, ParallelSimulator::Options{2});
  ok.net->enableParallel(derived);
  EXPECT_EQ(derived.lookahead(), ms(1));
}

}  // namespace
}  // namespace gcopss::test
