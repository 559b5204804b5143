#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/name_table.hpp"
#include "des/parallel.hpp"
#include "net/fault.hpp"
#include "net/packet.hpp"
#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

// ---------------------------------------------------------------------------
// Engine-level contracts: windowed rounds, deterministic merge, global-lane
// sequencing. These drive ParallelSimulator directly, no network on top.
// ---------------------------------------------------------------------------

// Three producers A, B, C on either engine. On the parallel one A and B
// share shard 0 and C lives on shard 1 % workers; `workers == 0` runs the
// same script on one serial Simulator. Local events stand in for CPU
// completions, sends for link deliveries (keyed posts on the engine).
struct TieWorld {
  static constexpr std::uint64_t kA = 1, kB = 2, kC = 3;

  TieWorld(std::size_t workers, SimTime lookahead) {
    if (workers > 0) {
      par = std::make_unique<ParallelSimulator>(global, ParallelSimulator::Options{workers});
      par->setLookahead(lookahead);
    }
  }

  std::size_t shardOf(std::uint64_t node) const {
    return par && node == kC ? 1 % par->workerCount() : 0;
  }
  Simulator& lane(std::uint64_t node) { return par ? par->shard(shardOf(node)) : global; }

  template <typename F>
  void at(std::uint64_t node, SimTime t, F fn) {
    lane(node).scheduleAt(t, std::move(fn));
  }
  void local(std::uint64_t node, SimTime delay, const char* tag) {
    lane(node).schedule(delay, [this, tag]() { order.emplace_back(tag); });
  }
  void send(std::uint64_t from, std::uint64_t to, SimTime delay, const char* tag) {
    auto rec = [this, tag]() { order.emplace_back(tag); };
    if (!par) {
      global.schedule(delay, rec);
      return;
    }
    const SimTime now = lane(from).now();
    par->post(shardOf(to), now + delay, {now, from, sendSeq[from]++}, rec);
  }
  void run() {
    if (par) {
      par->run();
    } else {
      global.run();
    }
  }

  Simulator global;
  std::unique_ptr<ParallelSimulator> par;
  std::uint64_t sendSeq[4] = {};
  std::vector<std::string> order;
};

std::vector<std::string> runTies(std::size_t workers, SimTime lookahead) {
  TieWorld w(workers, lookahead);
  // Arrivals at A at t=2ms and t=5ms from local timers (A), a co-sharded
  // sender (B) and a remote one (C), sent at t=0, 0.5ms and 1ms. The serial
  // engine orders equal-time events by when they were scheduled, and at
  // equal send time by producer (A's, then B's, then C's events run first).
  w.at(TieWorld::kA, 0, [&w]() {
    w.local(TieWorld::kA, ms(2), "A@2/0");
    w.local(TieWorld::kA, ms(5), "A@5/0");
  });
  w.at(TieWorld::kB, us(500), [&w]() {
    w.send(TieWorld::kB, TieWorld::kA, us(1500), "B@2/0.5");  // lands inside the round
  });
  w.at(TieWorld::kC, us(500), [&w]() {
    w.send(TieWorld::kC, TieWorld::kA, us(4500), "C@5/0.5");  // merged arrival
  });
  w.at(TieWorld::kA, ms(1), [&w]() {
    w.local(TieWorld::kA, ms(1), "A@2/1");
    w.local(TieWorld::kA, ms(4), "A@5/1");  // CPU-done vs arrivals sent at 1ms
  });
  w.at(TieWorld::kB, ms(1), [&w]() { w.send(TieWorld::kB, TieWorld::kA, ms(4), "B@5/1"); });
  w.at(TieWorld::kC, ms(1), [&w]() { w.send(TieWorld::kC, TieWorld::kA, ms(4), "C@5/1"); });
  w.run();
  return w.order;
}

TEST(ParallelSimulator, EqualTimeTiesInsideOneRoundFollowSerialOrder) {
  const std::vector<std::string> serial = runTies(0, 0);
  const std::vector<std::string> expected = {"A@2/0", "B@2/0.5", "A@2/1", "A@5/0",
                                             "C@5/0.5", "A@5/1", "B@5/1", "C@5/1"};
  ASSERT_EQ(serial, expected);
  // Lookaheads up to C's 4 ms delay; the widest puts every send, the
  // co-sharded 1.5 ms one included, inside the first round.
  for (std::size_t workers : {1u, 2u}) {
    for (SimTime lookahead : {us(250), ms(1), ms(2), ms(4)}) {
      EXPECT_EQ(runTies(workers, lookahead), serial)
          << "workers=" << workers << " lookahead=" << lookahead;
    }
  }
}

TEST(ParallelSimulator, CrossShardPostInsideTheWindowThrows) {
  Simulator global;
  ParallelSimulator psim(global, ParallelSimulator::Options{2});
  psim.setLookahead(ms(4));
  psim.shard(1).scheduleAt(0, [&psim]() {
    psim.post(0, ms(1), {0, /*src=*/1, /*seq=*/0}, []() {});  // 1 ms < lookahead
  });
  EXPECT_THROW(psim.run(), std::logic_error);
}

TEST(ParallelSimulator, GlobalLaneRunsBeforeShardEventsAtSameTime) {
  Simulator global;
  ParallelSimulator::Options po;
  po.workers = 2;
  ParallelSimulator psim(global, po);

  std::vector<int> order;
  psim.shard(0).scheduleAt(ms(5), [&order]() { order.push_back(1); });
  global.scheduleAt(ms(5), [&order]() { order.push_back(0); });
  psim.shard(1).scheduleAt(ms(3), [&order]() { order.push_back(-1); });
  psim.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], -1);  // earlier shard event
  EXPECT_EQ(order[1], 0);   // global phase wins the t=5ms tie
  EXPECT_EQ(order[2], 1);
}

TEST(ParallelSimulator, CountsEventsAcrossAllLanes) {
  Simulator global;
  ParallelSimulator::Options po;
  po.workers = 3;
  ParallelSimulator psim(global, po);
  for (std::size_t s = 0; s < 3; ++s) {
    for (int i = 0; i < 4; ++i) {
      psim.shard(s).scheduleAt(ms(1 + i), []() {});
    }
  }
  global.scheduleAt(ms(2), []() {});
  const std::uint64_t ran = psim.run();
  EXPECT_EQ(ran, 13u);
  EXPECT_EQ(psim.totalEventsExecuted(), 13u);
}

TEST(ParallelSimulator, WorkerExceptionPropagatesToRun) {
  Simulator global;
  ParallelSimulator::Options po;
  po.workers = 2;
  ParallelSimulator psim(global, po);
  psim.shard(1).scheduleAt(ms(1), []() { throw std::runtime_error("boom"); });
  EXPECT_THROW(psim.run(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Determinism goldens: the same G-COPSS workload must produce bit-identical
// per-client delivery traces on the serial engine and at threads {1, 2, 4}.
// Per-client streams are the right observable: each client's callback order
// is fully pinned by the merge contract, with no dependence on how shards
// interleave in wall-clock time.
// ---------------------------------------------------------------------------

struct TraceDigest {
  std::vector<std::uint64_t> perClient;  // order-sensitive per-client fold
  std::uint64_t deliveries = 0;
  std::uint64_t events = 0;
  std::uint64_t drops = 0;
  std::uint64_t linkPackets = 0;

  bool operator==(const TraceDigest& o) const {
    return perClient == o.perClient && deliveries == o.deliveries &&
           events == o.events && drops == o.drops && linkPackets == o.linkPackets;
  }

  friend std::ostream& operator<<(std::ostream& os, const TraceDigest& d) {
    os << "{deliveries=" << d.deliveries << " events=" << d.events
       << " drops=" << d.drops << " linkPackets=" << d.linkPackets << " perClient=[";
    for (std::size_t i = 0; i < d.perClient.size(); ++i) {
      os << (i ? "," : "") << std::hex << d.perClient[i] << std::dec;
    }
    return os << "]}";
  }
};

// Router ring of a goldens world. The default is six routers on 1 ms
// links, like every client link, so the partition cuts 1 ms links
// (singleton clusters). `Split` has eight routers on 5 ms links: each
// client stays with its router, the ring is cut and the lookahead is 5 ms.
struct Ring {
  std::size_t routers = 6;
  SimTime linkDelay = ms(1);
};
constexpr Ring kSplit{8, ms(5)};

// One fixed workload over a router ring: root + /1 subscribers, 60
// publishes from client 1. `threads == 0` = serial engine. With `chaos`,
// a loss/jitter/reorder plan (independent per-link streams) plus an RP
// crash with heartbeat failover runs underneath.
TraceDigest runWorld(std::size_t threads, bool chaos, std::uint64_t seed = 42,
                     Ring ring = {}) {
  LineWorld w(ring.routers, {}, SimParams::largeScale(), /*ring=*/true, ring.linkDelay);
  w.singleRootRp(2);

  std::unique_ptr<ParallelSimulator> psim;
  if (threads > 0) {
    w.checker.reset();  // observers are serial-only
    ParallelSimulator::Options po;
    po.workers = threads;
    psim = std::make_unique<ParallelSimulator>(*w.sim, po);
  }

  if (chaos) {
    FaultPlan plan;
    plan.seed = seed;
    plan.loseEverywhere(0.03)
        .jitterEverywhere(us(400))
        .reorderEverywhere(0.05, us(800))
        .crash(w.routerIds[2], ms(150), ms(400))
        .withIndependentStreams();
    w.net->applyFaultPlan(plan);
  }

  if (psim) w.net->enableParallel(*psim);

  TraceDigest d;
  d.perClient.assign(w.clients.size(), 0x9e3779b97f4a7c15ULL);
  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    std::uint64_t* h = &d.perClient[i];
    w.clients[i]->setMulticastCallback(
        [h](const copss::MulticastPacket& m, SimTime now) {
          *h = mix64(*h ^ m.seq);
          *h = mix64(*h ^ static_cast<std::uint64_t>(now));
        });
  }

  if (chaos) {
    gc::GCopssClient::ReliableOptions opts;
    opts.ackTimeout = ms(30);
    opts.maxRetries = 6;
    w.clients[1]->enableReliablePublish(opts);
  }

  w.sim->scheduleAt(0, [&w, chaos]() {
    w.clients[0]->subscribe(Name());
    w.clients[5]->subscribe(Name::parse("/1"));
    if (chaos) {
      // RP (router 2) heartbeats to standby router 4; the crash at 150ms
      // triggers a failover, the restart at 400ms a reclaim/demote.
      w.routers[2]->startRpHeartbeats(w.routerIds[4], ms(10), ms(600));
      w.routers[4]->watchRpLiveness(w.routerIds[2], ms(25), ms(600));
    }
  });
  for (std::uint64_t s = 1; s <= 60; ++s) {
    const SimTime at = ms(20) + ms(5) * static_cast<SimTime>(s - 1);
    if (psim) {
      // Publish on the client's own shard, as the harness does.
      w.net->nodeSim(w.clientIds[1]).scheduleAt(at, [&w, s]() {
        w.clients[1]->publish(Name::parse("/1/1"), 15, s);
      });
    } else {
      w.sim->scheduleAt(at, [&w, s]() {
        w.clients[1]->publish(Name::parse("/1/1"), 15, s);
      });
    }
  }

  if (psim) {
    psim->run();
    d.events = psim->totalEventsExecuted();
  } else {
    w.sim->run();
    d.events = w.sim->totalEventsExecuted();
  }
  std::uint64_t delivered = 0;
  for (std::uint64_t h : d.perClient) delivered += (h != 0x9e3779b97f4a7c15ULL);
  d.deliveries = delivered;
  d.drops = w.net->totalDrops();
  d.linkPackets = w.net->totalLinkPackets();
  return d;
}

TEST(ParallelDeterminism, FaultFreeTraceIdenticalAcrossThreadCounts) {
  const TraceDigest serial = runWorld(0, /*chaos=*/false);
  for (std::size_t threads : {1u, 2u, 4u}) {
    const TraceDigest par = runWorld(threads, /*chaos=*/false);
    EXPECT_EQ(par, serial) << "threads=" << threads
                           << ": per-client delivery traces must be "
                              "bit-identical to the serial engine";
  }
}

TEST(ParallelDeterminism, ChaosWithFailoverSeedStableAcrossThreadCounts) {
  const TraceDigest serial = runWorld(0, /*chaos=*/true);
  EXPECT_GT(serial.drops, 0u) << "the plan must actually inject faults";
  for (std::size_t threads : {1u, 2u, 4u}) {
    const TraceDigest par = runWorld(threads, /*chaos=*/true);
    EXPECT_EQ(par, serial) << "threads=" << threads
                           << ": chaos runs must be seed-stable across "
                              "thread counts";
  }
}

TEST(ParallelDeterminism, SplitRingTraceIdenticalAcrossThreadCounts) {
  {
    // The world really splits: clients stay with their routers, the ring
    // is cut, and the engine runs with the 5 ms lookahead.
    LineWorld w(kSplit.routers, {}, SimParams::largeScale(), /*ring=*/true, kSplit.linkDelay);
    w.checker.reset();
    ParallelSimulator psim(*w.sim, ParallelSimulator::Options{4});
    w.net->enableParallel(psim);
    EXPECT_EQ(psim.lookahead(), ms(5));
    for (std::size_t i = 0; i < w.clientIds.size(); ++i) {
      EXPECT_EQ(w.net->shardOf(w.clientIds[i]), w.net->shardOf(w.routerIds[i]));
    }
  }
  for (bool chaos : {false, true}) {
    const TraceDigest serial = runWorld(0, chaos, 42, kSplit);
    EXPECT_GT(serial.deliveries, 0u);
    if (chaos) {
      EXPECT_GT(serial.drops, 0u) << "the plan must actually inject faults";
    }
    for (std::size_t threads : {1u, 2u, 3u, 4u}) {
      EXPECT_EQ(runWorld(threads, chaos, 42, kSplit), serial)
          << "threads=" << threads << " chaos=" << chaos
          << ": per-client traces must equal the serial engine's";
    }
  }
}

TEST(ParallelDeterminism, RepeatedRunsAtFourThreadsAreIdentical) {
  const TraceDigest a = runWorld(4, /*chaos=*/true);
  const TraceDigest b = runWorld(4, /*chaos=*/true);
  EXPECT_EQ(a, b) << "thread scheduling must not leak into results";
}

TEST(ParallelDeterminism, DifferentSeedsDiverge) {
  const TraceDigest a = runWorld(2, /*chaos=*/true, 42);
  const TraceDigest b = runWorld(2, /*chaos=*/true, 43);
  EXPECT_FALSE(a == b) << "the seed must steer the per-link fault lanes";
}

// ---------------------------------------------------------------------------
// Shared-structure hammers (primarily TSan targets).
// ---------------------------------------------------------------------------

TEST(ParallelShared, PacketRefCountSurvivesConcurrentRetainRelease) {
  auto base = makePacket<Packet>(Packet::Kind::Multicast, Bytes{64});
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&base]() {
      for (int i = 0; i < kIters; ++i) {
        PacketPtr copy = base;        // retain
        PacketPtr second = copy;      // retain
        copy.reset();                 // release
        // `second` releases at scope end
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(base->size, Bytes{64});  // object alive and intact
}

TEST(ParallelShared, NameTableConcurrentInternAndRead) {
  NameTable table;
  // Sequential pre-intern (the documented determinism contract), then
  // concurrent readers doing id-walks while writers extend fresh subtrees.
  std::vector<NameId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(table.intern(Name::parse("/pre/" + std::to_string(i))));
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&table, t]() {  // writers: disjoint subtrees
      for (int i = 0; i < 500; ++i) {
        table.intern(Name::parse("/w" + std::to_string(t) + "/" + std::to_string(i)));
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&table, &ids, &failed]() {  // readers: id walks
      for (int round = 0; round < 500; ++round) {
        for (NameId id : ids) {
          if (table.depth(id) != 2 || table.parent(id) == kInvalidNameId ||
              !table.isPrefixOf(kRootNameId, id)) {
            failed.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  // Interleaved interning stayed structurally sound.
  for (int t = 0; t < 2; ++t) {
    for (int i = 0; i < 500; ++i) {
      const Name n = Name::parse("/w" + std::to_string(t) + "/" + std::to_string(i));
      const NameId id = table.find(n);
      ASSERT_NE(id, kInvalidNameId);
      EXPECT_EQ(table.name(id).toString(), n.toString());
    }
  }
}

TEST(ParallelShared, FaultLanesAreSeedStablePerLink) {
  // Two injectors over the same plan must agree even if one interleaves
  // draws across links differently: each directed link owns its stream.
  FaultPlan plan;
  plan.seed = 7;
  plan.loseEverywhere(0.2).jitterEverywhere(us(500)).withIndependentStreams();
  const std::vector<std::pair<NodeId, NodeId>> links = {{0, 1}, {1, 0}, {1, 2}, {2, 1}};

  FaultInjector a(plan);
  a.prepareLanes(links);
  FaultInjector b(plan);
  b.prepareLanes(links);

  // a: draw link (0,1) x3 then (1,2) x3. b: interleaved. Same per-link
  // verdict sequences either way.
  std::vector<SimTime> a01, a12, b01, b12;
  for (int i = 0; i < 3; ++i) {
    auto v = a.onTransmit(0, 1, ms(i));
    a01.push_back(v.drop ? -1 : v.extraDelay);
  }
  for (int i = 0; i < 3; ++i) {
    auto v = a.onTransmit(1, 2, ms(i));
    a12.push_back(v.drop ? -1 : v.extraDelay);
  }
  for (int i = 0; i < 3; ++i) {
    auto v = b.onTransmit(1, 2, ms(i));
    b12.push_back(v.drop ? -1 : v.extraDelay);
    v = b.onTransmit(0, 1, ms(i));
    b01.push_back(v.drop ? -1 : v.extraDelay);
  }
  EXPECT_EQ(a01, b01);
  EXPECT_EQ(a12, b12);
}

}  // namespace
}  // namespace gcopss::test
