// Data-plane match equivalence suite (DESIGN.md §4e).
//
// SubscriptionTable's one matcher — the bit-plane sweep behind the per-tick
// match cache — must agree *byte for byte* with the per-face scalar probe
// reference model (tests/st_reference.hpp): same match set, same output
// order, same bloomFalsePositives accounting — under churn, prunes, slot
// reuse across the 64-face word boundary, and saturated Bloom counters. The
// reference is an independent shadow fed the same mutation stream.
//
// The last tests close the loop end-to-end: whole-sim runs must reproduce a
// pinned RunSummary digest on the serial and the 4-shard engine, and the
// NameId-keyed CD-FIB must agree with a naive map reference under churn.

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "copss/packets.hpp"
#include "copss/st.hpp"
#include "gcopss/experiment.hpp"
#include "ndn/fib.hpp"
#include "st_reference.hpp"

namespace gcopss::test {
namespace {

using copss::MulticastPacket;
using copss::SubscriptionTable;

// Deterministic generator (no std::rand / random_device — determinism lint).
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(mix64(seed | 1)) {}
  std::uint64_t next() { return state = mix64(state + 0x9e3779b97f4a7c15ULL); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// Hierarchical CD universe: /g<a>, /g<a>/r<b>, /g<a>/r<b>/c<c>.
Name randomCd(Lcg& rng, std::uint64_t groups = 8) {
  const auto a = rng.below(groups);
  Name n = Name::parse("/g" + std::to_string(a));
  if (rng.below(3) != 0) {
    n = n.append("r" + std::to_string(rng.below(4)));
    if (rng.below(2) != 0) n = n.append("c" + std::to_string(rng.below(3)));
  }
  return n;
}

// One publication's worth of match inputs, prefix hashes precomputed the way
// the data plane does it (MulticastPacket's hash-at-first-hop).
struct Pub {
  std::vector<Name> cds;
  std::vector<std::uint64_t> prefixHashes;
  std::uint64_t matchKey;
};

Pub randomPub(Lcg& rng, std::uint64_t groups = 8) {
  std::vector<Name> cds{randomCd(rng, groups)};
  if (rng.below(4) == 0) cds.push_back(randomCd(rng, groups));
  const MulticastPacket pkt(cds, 10, 0, 1, 0);
  return Pub{pkt.cds, pkt.prefixHashes, pkt.matchKey};
}

// The production table and its reference model, fed one mutation stream.
struct Twin {
  SubscriptionTable st;
  StReference ref;

  Twin() = default;
  explicit Twin(SubscriptionTable::Options opts) : st(opts), ref(opts) {}

  void subscribe(NodeId face, const Name& cd) {
    st.subscribe(face, cd);
    ref.subscribe(face, cd);
  }
  void unsubscribe(NodeId face, const Name& cd) {
    st.unsubscribe(face, cd);
    ref.unsubscribe(face, cd);
  }
  void prune(NodeId face, const Name& cd) {
    st.prune(face, cd);
    ref.prune(face, cd);
  }
};

// Run the same publication through the reference model and, twice, through
// the production matcher (the second call replays the cache line when no
// face has prunes), asserting identical face vectors AND identical
// bloomFalsePositives deltas.
void expectEquivalent(Twin& t, const Pub& pub, NodeId exclude) {
  const auto refFpBefore = t.ref.falsePositives();
  const std::vector<NodeId> expected = t.ref.match(pub.cds, pub.prefixHashes, exclude);
  const auto fpExpected = t.ref.falsePositives() - refFpBefore;

  for (const char* pass : {"sweep", "repeat"}) {
    std::vector<NodeId> got;
    const auto fpBefore = t.st.bloomFalsePositives();
    t.st.matchFacesHashedInto(pub.cds, pub.prefixHashes, pub.matchKey, exclude, got);
    ASSERT_EQ(got, expected) << pass << ": matcher diverged from the reference model";
    ASSERT_EQ(t.st.bloomFalsePositives() - fpBefore, fpExpected)
        << pass << ": false-positive accounting diverged";
  }
}

// 70 faces forces planeWords_ > 1 (the index crosses the 64-face word
// boundary), so the sweep's per-word loop and slot-column mapping both get
// exercised, not just word 0.
constexpr NodeId kFaces = 70;

TEST(BatchedMatch, RandomChurnMatchesScalarOracle) {
  Twin t;
  Lcg rng(2026);

  // (face, cd) pairs we know are live, so unsubscribes hit real entries.
  std::vector<std::pair<NodeId, Name>> live;
  for (int round = 0; round < 40; ++round) {
    for (int op = 0; op < 25; ++op) {
      if (live.empty() || rng.below(3) != 0) {
        const NodeId face = static_cast<NodeId>(rng.below(kFaces));
        Name cd = randomCd(rng);
        t.subscribe(face, cd);
        live.emplace_back(face, std::move(cd));
      } else {
        const auto pick = rng.below(live.size());
        t.unsubscribe(live[pick].first, live[pick].second);
        live[pick] = live.back();
        live.pop_back();
      }
    }
    for (int p = 0; p < 12; ++p) {
      const NodeId exclude =
          rng.below(4) == 0 ? static_cast<NodeId>(rng.below(kFaces)) : kInvalidNode;
      expectEquivalent(t, randomPub(rng), exclude);
    }
  }
}

TEST(BatchedMatch, PrunedFacesMatchScalarOracle) {
  // Active prunes bypass the cache and push pruned faces down the textual
  // slow path; the combined output must still equal the reference's. The
  // exact-match ablation (useBloom=false) takes the same prunes.
  for (const bool useBloom : {true, false}) {
    SCOPED_TRACE(useBloom ? "bloom" : "exact");
    SubscriptionTable::Options opts;
    opts.useBloom = useBloom;
    Twin t(opts);
    Lcg rng(7);
    for (NodeId f = 0; f < 20; ++f) {
      t.subscribe(f, Name::parse("/g" + std::to_string(f % 8)));
    }
    for (int i = 0; i < 30; ++i) {
      t.prune(static_cast<NodeId>(rng.below(20)), randomCd(rng));
    }
    for (int p = 0; p < 60; ++p) {
      expectEquivalent(t, randomPub(rng),
                       rng.below(3) == 0 ? static_cast<NodeId>(rng.below(20)) : kInvalidNode);
    }
    // Resubscribing ancestors clears prunes; the equivalence must survive
    // the transition back to the cached path.
    for (NodeId f = 0; f < 20; ++f) {
      t.subscribe(f, Name::parse("/g" + std::to_string(f % 8)));
    }
    for (int p = 0; p < 30; ++p) expectEquivalent(t, randomPub(rng), kInvalidNode);
  }
}

TEST(BatchedMatch, CacheHitReplaysFacesAndFalsePositives) {
  // A deliberately tiny filter, so the match carries false positives the
  // cache line must replay.
  SubscriptionTable::Options opts;
  opts.bloomBits = 16;
  opts.bloomHashes = 1;
  Twin t(opts);
  for (int i = 0; i < 12; ++i) t.subscribe(1 + i % 3, Name::parse("/s" + std::to_string(i)));
  t.subscribe(1, Name::parse("/g1"));
  t.subscribe(2, Name::parse("/g1/r2"));
  const SubscriptionTable& st = t.st;

  const MulticastPacket pkt({Name::parse("/g1/r2/c1")}, 10, 0, 1, 0);
  std::vector<NodeId> first, second;
  st.matchFacesHashedInto(pkt.cds, pkt.prefixHashes, pkt.matchKey, kInvalidNode, first);
  const auto hits = st.matchCacheHits();
  const auto fpBefore = st.bloomFalsePositives();
  st.matchFacesHashedInto(pkt.cds, pkt.prefixHashes, pkt.matchKey, kInvalidNode, second);
  EXPECT_EQ(st.matchCacheHits(), hits + 1) << "repeat publication must hit the cache";
  EXPECT_EQ(first, second);

  // The replayed faces and false-positive delta must equal a fresh
  // evaluation by the reference model.
  const auto refBefore = t.ref.falsePositives();
  EXPECT_EQ(first, t.ref.match(pkt.cds, pkt.prefixHashes, kInvalidNode));
  const auto fpReference = t.ref.falsePositives() - refBefore;
  EXPECT_GT(fpReference, 0u) << "the tiny filter should leak on this publication";
  EXPECT_EQ(st.bloomFalsePositives() - fpBefore, fpReference);
}

TEST(BatchedMatch, MutationInvalidatesCache) {
  SubscriptionTable st;
  st.subscribe(1, Name::parse("/g1"));
  const MulticastPacket pkt({Name::parse("/g1/r1")}, 10, 0, 1, 0);
  std::vector<NodeId> faces;
  st.matchFacesHashedInto(pkt.cds, pkt.prefixHashes, pkt.matchKey, kInvalidNode, faces);
  EXPECT_EQ(faces, (std::vector<NodeId>{1}));

  st.subscribe(2, Name::parse("/g1/r1"));  // bumps the table version
  st.matchFacesHashedInto(pkt.cds, pkt.prefixHashes, pkt.matchKey, kInvalidNode, faces);
  EXPECT_EQ(faces, (std::vector<NodeId>{1, 2})) << "stale cache line survived a mutation";

  st.unsubscribe(1, Name::parse("/g1"));
  st.matchFacesHashedInto(pkt.cds, pkt.prefixHashes, pkt.matchKey, kInvalidNode, faces);
  EXPECT_EQ(faces, (std::vector<NodeId>{2}));
}

TEST(BatchedMatch, SlotReuseAfterFaceRemoval) {
  // Kill entire faces (slot release) and add new ones (slot reuse, including
  // reuse of freed columns) while matching stays equivalent throughout.
  Twin t;
  Lcg rng(11);
  for (NodeId f = 0; f < kFaces; ++f) {
    t.subscribe(f, Name::parse("/g" + std::to_string(f % 8)));
  }
  for (int round = 0; round < 10; ++round) {
    // Remove ~1/3 of the faces entirely...
    for (NodeId f = 0; f < kFaces; ++f) {
      if (rng.below(3) == 0) t.unsubscribe(f, Name::parse("/g" + std::to_string(f % 8)));
    }
    // ...and repopulate (some of these land in freed columns).
    for (NodeId f = 0; f < kFaces; ++f) {
      if (!t.st.faceSubscribed(f, Name::parse("/g" + std::to_string(f % 8)))) {
        t.subscribe(f, Name::parse("/g" + std::to_string(f % 8)));
      }
    }
    for (int p = 0; p < 10; ++p) {
      expectEquivalent(t, randomPub(rng),
                       rng.below(3) == 0 ? static_cast<NodeId>(rng.below(kFaces)) : kInvalidNode);
    }
  }
}

TEST(BatchedMatch, TinySaturatedFilterStaysEquivalent) {
  // A deliberately undersized filter (64 counters, 2 hashes) saturates its
  // 8-bit counters and rains false positives; syncPlanes re-derives plane
  // bits from the counters, so even this pathological table must match the
  // reference model bit-for-bit — including the FP counter.
  SubscriptionTable::Options opts;
  opts.bloomBits = 64;
  opts.bloomHashes = 2;
  Twin t(opts);
  Lcg rng(13);

  std::vector<std::pair<NodeId, Name>> live;
  for (int i = 0; i < 600; ++i) {
    const NodeId face = static_cast<NodeId>(rng.below(6));
    Name cd = Name::parse("/g" + std::to_string(rng.below(4)))
                  .append("x" + std::to_string(i));
    t.subscribe(face, cd);
    live.emplace_back(face, std::move(cd));
  }
  for (int p = 0; p < 40; ++p) expectEquivalent(t, randomPub(rng, 4), kInvalidNode);
  // Prunes on a saturated table take the exact-Name path per face.
  for (int i = 0; i < 4; ++i) t.prune(static_cast<NodeId>(rng.below(6)), randomCd(rng, 4));
  for (int p = 0; p < 20; ++p) expectEquivalent(t, randomPub(rng, 4), kInvalidNode);
  // Drain back down through the saturation boundary.
  while (!live.empty()) {
    const auto pick = rng.below(live.size());
    t.unsubscribe(live[pick].first, live[pick].second);
    live[pick] = live.back();
    live.pop_back();
    if (live.size() % 97 == 0) {
      for (int p = 0; p < 5; ++p) expectEquivalent(t, randomPub(rng, 4), kInvalidNode);
    }
  }
}

// ---- end-to-end: pinned whole-run digests on both engines ----

std::uint64_t summaryDigest(const gc::RunSummary& r) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto fold = [&h](std::uint64_t x) { h = mix64(h ^ x); };
  fold(r.deliveries);
  fold(r.eventsExecuted);
  fold(r.bloomFalsePositives);
  fold(r.linkPackets);
  fold(r.drops);
  fold(std::bit_cast<std::uint64_t>(r.meanMs));
  fold(std::bit_cast<std::uint64_t>(r.p99Ms));
  fold(std::bit_cast<std::uint64_t>(r.networkGB));
  for (const auto& [ms, frac] : r.latencyCdfMs) {
    fold(std::bit_cast<std::uint64_t>(ms));
    fold(std::bit_cast<std::uint64_t>(frac));
  }
  return h;
}

TEST(BatchedMatch, FullRunDigestInvariantAcrossMatchPathAndEngine) {
  game::GameMap map{std::vector<std::size_t>{2, 2}};
  game::ObjectDatabase db{map, {6, 12, 24}};
  trace::CsTraceConfig tcfg;
  tcfg.players = 14;
  tcfg.totalUpdates = 600;
  tcfg.meanInterArrival = ms(5);
  tcfg.playersPerAreaMin = 2;
  tcfg.playersPerAreaMax = 2;
  tcfg.seed = 99;
  const auto trace = trace::generateCsTrace(map, db, tcfg);

  // Digests recorded when the scalar per-face matcher and the bit-plane
  // sweep both ran in src/ and produced them bit-identically: the match
  // path may not perturb a single latency sample. Full digests (latency
  // floats and CDF included) are pinned per engine; the integer outcomes
  // must agree across engines.
  constexpr std::uint64_t kSerialDigest = 0x063cb46bcbb2f3e9ULL;
  constexpr std::uint64_t kShardedDigest = 0x3cb0f4ead11939f4ULL;
  std::vector<gc::RunSummary> runs;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    gc::GCopssRunConfig cfg;
    cfg.topo = gc::TopoKind::Bench6;
    cfg.params = SimParams::microbench();
    cfg.numRps = 2;
    cfg.threads = threads;
    runs.push_back(gc::runGCopssTrace(map, trace, cfg));
  }
  EXPECT_EQ(runs[0].deliveries, runs[1].deliveries);
  EXPECT_EQ(runs[0].eventsExecuted, runs[1].eventsExecuted);
  EXPECT_EQ(runs[0].bloomFalsePositives, runs[1].bloomFalsePositives);
  EXPECT_EQ(runs[0].linkPackets, runs[1].linkPackets);
  EXPECT_EQ(runs[0].drops, runs[1].drops);
  EXPECT_EQ(summaryDigest(runs[0]), kSerialDigest) << "serial digest moved";
  EXPECT_EQ(summaryDigest(runs[1]), kShardedDigest) << "threads=4 digest moved";
}

// ---- NameId-keyed CD-FIB vs a naive map reference ----

// Reference FIB: every (prefix, face) pair in an ordered map, LPM by trying
// every prefix length longest first.
struct FibReference {
  std::map<Name, std::set<NodeId>> table;

  void insert(const Name& prefix, NodeId face) { table[prefix].insert(face); }
  void remove(const Name& prefix, NodeId face) {
    const auto it = table.find(prefix);
    if (it == table.end()) return;
    it->second.erase(face);
    if (it->second.empty()) table.erase(it);
  }
  void removePrefix(const Name& prefix) { table.erase(prefix); }

  std::vector<NodeId> lpm(const Name& name) const {
    for (std::size_t len = name.size() + 1; len-- > 0;) {
      const auto it = table.find(name.prefix(len));
      if (it != table.end()) return {it->second.begin(), it->second.end()};
    }
    return {};
  }
  // Ancestors-or-self shallowest first, then descendants in Name order.
  std::vector<std::pair<Name, std::vector<NodeId>>> intersecting(const Name& name) const {
    std::vector<std::pair<Name, std::vector<NodeId>>> out;
    for (std::size_t len = 0; len <= name.size(); ++len) {
      const auto it = table.find(name.prefix(len));
      if (it != table.end()) out.emplace_back(it->first, entryFaces(it->second));
    }
    for (const auto& [prefix, faces] : table) {
      if (prefix.size() > name.size() && name.isPrefixOf(prefix)) {
        out.emplace_back(prefix, entryFaces(faces));
      }
    }
    return out;
  }
  std::vector<std::pair<Name, std::vector<NodeId>>> entries() const {
    std::vector<std::pair<Name, std::vector<NodeId>>> out;
    for (const auto& [prefix, faces] : table) out.emplace_back(prefix, entryFaces(faces));
    return out;
  }
  std::size_t pairCount() const {
    std::size_t n = 0;
    for (const auto& [prefix, faces] : table) n += faces.size();
    return n;
  }
  static std::vector<NodeId> entryFaces(const std::set<NodeId>& faces) {
    return {faces.begin(), faces.end()};
  }
};

void expectFibMatchesReference(const ndn::Fib& fib, const FibReference& ref, const Name& name) {
  const auto want = ref.lpm(name);
  ASSERT_EQ(fib.lpm(name), want) << "lpm(Name) diverged for " << name.toString();
  const auto* faces = fib.lpmFaces(NameTable::instance().intern(name));
  ASSERT_EQ(faces ? std::vector<NodeId>(faces->begin(), faces->end()) : std::vector<NodeId>{},
            want)
      << "lpmFaces diverged for " << name.toString();
  ASSERT_EQ(fib.intersecting(name), ref.intersecting(name))
      << "intersecting diverged for " << name.toString();
}

TEST(BatchedMatch, FibMatchesMapReferenceUnderChurn) {
  ndn::Fib fib;
  FibReference ref;
  Lcg rng(23);

  std::vector<std::pair<Name, NodeId>> live;
  for (int round = 0; round < 30; ++round) {
    for (int op = 0; op < 15; ++op) {
      if (live.empty() || rng.below(3) != 0) {
        Name prefix = rng.below(20) == 0 ? Name() : randomCd(rng);
        const NodeId face = static_cast<NodeId>(rng.below(10));
        fib.insert(prefix, face);
        ref.insert(prefix, face);
        live.emplace_back(std::move(prefix), face);
      } else {
        const auto pick = rng.below(live.size());
        fib.remove(live[pick].first, live[pick].second);
        ref.remove(live[pick].first, live[pick].second);
        live[pick] = live.back();
        live.pop_back();
      }
    }
    ASSERT_EQ(fib.entries(), ref.entries());
    ASSERT_EQ(fib.entryCount(), ref.pairCount());
    for (int q = 0; q < 20; ++q) {
      // Query names one level deeper than the registered universe too, so
      // the walk's hop-down-past-byDepth_ path gets covered, and names never
      // interned before, so lpm(Name) stops at the deepest interned prefix.
      Name name = randomCd(rng);
      if (rng.below(2) == 0) name = name.append("deep" + std::to_string(rng.below(3)));
      if (rng.below(4) == 0) name = name.append("fresh" + std::to_string(round * 100 + q));
      expectFibMatchesReference(fib, ref, name);
    }
  }
  // removePrefix (bulk face clear) must also unindex the level entry.
  for (const auto& [prefix, face] : live) {
    (void)face;
    fib.removePrefix(prefix);
    ref.removePrefix(prefix);
    expectFibMatchesReference(fib, ref, prefix);
    ASSERT_EQ(fib.entryCount(), ref.pairCount());
  }
  EXPECT_TRUE(fib.entries().empty());
  EXPECT_TRUE(fib.lpm(Name::parse("/g1/r1")).empty());
  EXPECT_FALSE(fib.remove(Name::parse("/never/registered"), 1));
}

}  // namespace
}  // namespace gcopss::test
