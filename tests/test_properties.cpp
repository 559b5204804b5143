#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "copss/st.hpp"
#include "gcopss/experiment.hpp"
#include "st_reference.hpp"
#include "world_fixture.hpp"

namespace gcopss::test {
namespace {

// ---------------------------------------------------------------------------
// System-level property sweeps: invariants that must hold for every
// configuration, checked across parameter grids.
// ---------------------------------------------------------------------------

struct DeliveryCase {
  std::size_t numRps;
  std::uint64_t seed;
  bool hybrid;
};

void PrintTo(const DeliveryCase& c, std::ostream* os) {
  *os << (c.hybrid ? "hybrid" : "pure") << "/rps=" << c.numRps << "/seed=" << c.seed;
}

class DeliveryCompleteness : public ::testing::TestWithParam<DeliveryCase> {};

// PROPERTY: under any RP count, seed, and stack variant, every update
// reaches exactly the players whose position sees its CD — no more, no less.
TEST_P(DeliveryCompleteness, EveryEntitledPlayerGetsEveryUpdate) {
  const auto& c = GetParam();
  game::GameMap map({3, 3});
  game::ObjectDatabase db(map, {8, 24, 54});
  trace::CsTraceConfig tcfg;
  tcfg.players = 26;
  tcfg.totalUpdates = 500;
  tcfg.meanInterArrival = ms(4);
  tcfg.playersPerAreaMin = 2;
  tcfg.playersPerAreaMax = 2;
  tcfg.seed = c.seed;
  const auto trace = trace::generateCsTrace(map, db, tcfg);

  std::size_t expected = 0;
  for (const auto& rec : trace.records) {
    for (std::size_t p = 0; p < trace.playerPositions.size(); ++p) {
      if (p != rec.playerId && map.sees(trace.playerPositions[p], rec.cd)) ++expected;
    }
  }

  gc::GCopssRunConfig cfg;
  cfg.numRps = c.numRps;
  cfg.hybrid = c.hybrid;
  cfg.hybridGroups = 3;
  cfg.seed = c.seed;
  const auto r = gc::runGCopssTrace(map, trace, cfg);
  EXPECT_EQ(r.deliveries, expected);
  EXPECT_EQ(r.drops, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DeliveryCompleteness,
    ::testing::Values(DeliveryCase{1, 7, false}, DeliveryCase{2, 7, false},
                      DeliveryCase{3, 7, false}, DeliveryCase{4, 7, false},
                      DeliveryCase{2, 11, false}, DeliveryCase{3, 11, false},
                      DeliveryCase{3, 13, false}, DeliveryCase{2, 7, true},
                      DeliveryCase{3, 11, true}));

// PROPERTY: RP migration never loses a publication, across random split
// instants and subscriber layouts.
class MigrationNoLoss : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MigrationNoLoss, ContinuousPublishingThroughASplit) {
  Rng rng(GetParam());
  LineWorld w(6);
  w.singleRootRp(static_cast<std::size_t>(rng.uniformInt(0, 5)));
  DeliveryLog log;
  log.attach(w);

  // Random subscriber set over random CDs (always including a root watcher
  // that must see everything).
  const std::vector<Name> universe = {Name::parse("/1/1"), Name::parse("/1/2"),
                                      Name::parse("/2/1"), Name::parse("/2/2"),
                                      Name::parse("/3/1")};
  w.sim->scheduleAt(0, [&]() {
    w.clients[5]->subscribe(Name());
    for (std::size_t c = 1; c < 5; ++c) {
      w.clients[c]->subscribe(universe[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(universe.size()) - 1))]);
    }
  });

  std::uint64_t seq = 0;
  for (int i = 0; i < 80; ++i) {
    const Name cd = universe[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(universe.size()) - 1))];
    ++seq;
    w.sim->scheduleAt(ms(20) + ms(5) * i,
                      [&, cd, s = seq]() { w.clients[0]->publish(cd, 20, s); });
  }
  const std::uint64_t total = seq;
  const SimTime splitAt = ms(rng.uniformInt(40, 350));
  w.sim->scheduleAt(splitAt, [&]() {
    for (auto* r : w.routers) {
      if (!r->rpPrefixes().empty()) {
        r->forceSplit();
        return;
      }
    }
  });
  w.sim->run();

  for (std::uint64_t s = 1; s <= total; ++s) {
    EXPECT_TRUE(log.got(5, s)) << "root watcher missed seq " << s << " (seed "
                               << GetParam() << ", split at " << toMs(splitAt) << "ms)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationNoLoss,
                         ::testing::Range<std::uint64_t>(1, 13));

// PROPERTY: the G-COPSS and IP-server stacks deliver identical audiences for
// identical traces (their visibility semantics agree), across seeds.
class StackEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StackEquivalence, SameAudienceAcrossStacks) {
  game::GameMap map({2, 3});
  game::ObjectDatabase db(map, {4, 8, 18});
  trace::CsTraceConfig tcfg;
  tcfg.players = 18;
  tcfg.totalUpdates = 300;
  tcfg.meanInterArrival = ms(5);
  tcfg.playersPerAreaMin = 2;
  tcfg.playersPerAreaMax = 2;
  tcfg.seed = GetParam();
  const auto trace = trace::generateCsTrace(map, db, tcfg);

  gc::GCopssRunConfig g;
  g.numRps = 2;
  g.seed = GetParam();
  gc::IpServerRunConfig s;
  s.numServers = 2;
  s.seed = GetParam();
  EXPECT_EQ(gc::runGCopssTrace(map, trace, g).deliveries,
            gc::runIpServerTrace(map, trace, s).deliveries);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackEquivalence, ::testing::Values(3, 17, 29));

// ---------------------------------------------------------------------------
// PROPERTY: ST prefix aggregation. A subscription at an interior CD covers
// every leaf underneath it — for any randomly generated leaf set, a face
// subscribed at "/1" matches every publication whose CD lives under /1 and
// never one under a sibling root. Holds on both the exact path and the
// hashed (hash-at-first-hop) data path, and the reference model agrees.
// ---------------------------------------------------------------------------

class StAggregation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StAggregation, InteriorSubscriptionCoversExactlyItsSubtree) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("st aggregation seed=" + std::to_string(seed));
  Rng rng(seed);

  copss::SubscriptionTable st;
  StReference ref;
  const NodeId face = 7;
  st.subscribe(face, Name::parse("/1"));
  ref.subscribe(face, Name::parse("/1"));
  const auto dataPlane = [&st](const copss::MulticastPacket& pkt) {
    std::vector<NodeId> faces;
    st.matchFacesHashedInto(pkt.cds, pkt.prefixHashes, pkt.matchKey, kInvalidNode, faces);
    return faces;
  };

  for (int i = 0; i < 200; ++i) {
    // A random leaf somewhere under /1, up to 4 levels deep...
    Name under = Name::parse("/1");
    const int depth = static_cast<int>(rng.uniformInt(1, 4));
    for (int d = 0; d < depth; ++d) {
      under = under.append(std::to_string(rng.uniformInt(0, 99)));
    }
    // ...and its mirror under a sibling root the face never subscribed to.
    Name outside = Name::parse("/" + std::to_string(rng.uniformInt(2, 9)));
    for (std::size_t d = 1; d < under.size(); ++d) {
      outside = outside.append(under.at(d));
    }

    const auto coveredExact = st.facesMatching(under);
    ASSERT_EQ(coveredExact.size(), 1u) << under.toString();
    EXPECT_EQ(coveredExact[0], face);
    EXPECT_TRUE(st.hasIntersectingSubscription(under));

    // The hashed data path (what routers actually run) agrees, and so does
    // the per-face reference model.
    const copss::MulticastPacket pkt({under}, 15, 0, 1, 99);
    EXPECT_EQ(dataPlane(pkt), coveredExact) << under.toString();
    EXPECT_EQ(ref.match(pkt.cds, pkt.prefixHashes, kInvalidNode), coveredExact)
        << under.toString();

    EXPECT_TRUE(st.facesMatching(outside).empty()) << outside.toString();
    const copss::MulticastPacket out({outside}, 15, 0, 2, 99);
    EXPECT_TRUE(dataPlane(out).empty()) << outside.toString();
    EXPECT_TRUE(ref.match(out.cds, out.prefixHashes, kInvalidNode).empty())
        << outside.toString();
  }

  // Unsubscribing the interior CD uncovers the whole subtree again.
  st.unsubscribe(face, Name::parse("/1"));
  EXPECT_TRUE(st.facesMatching(Name::parse("/1/2/3")).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StAggregation, ::testing::Values(5, 23, 71));

}  // namespace
}  // namespace gcopss::test
