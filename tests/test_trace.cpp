#include <gtest/gtest.h>

#include <stdexcept>

#include "common/stats.hpp"
#include "trace/trace.hpp"

namespace gcopss::test {
namespace {

using namespace gcopss::trace;
using game::GameMap;
using game::ObjectDatabase;

struct TraceWorld {
  GameMap map{std::vector<std::size_t>{5, 5}};
  ObjectDatabase db{map, ObjectDatabase::paperLayerCounts()};
};

TEST(CsTrace, ReproducesPublishedAggregates) {
  TraceWorld w;
  CsTraceConfig cfg;
  cfg.totalUpdates = 50000;
  const auto tr = generateCsTrace(w.map, w.db, cfg);

  EXPECT_EQ(tr.playerPositions.size(), 414u);
  // Poisson arrivals land within a couple of percent of the target count.
  EXPECT_NEAR(static_cast<double>(tr.records.size()), 50000.0, 1500.0);

  // Fig 3d: players per area within [4, 20].
  std::map<Name, std::size_t> perArea;
  for (const auto& p : tr.playerPositions) ++perArea[p.area];
  EXPECT_EQ(perArea.size(), 31u);
  for (const auto& [area, n] : perArea) {
    EXPECT_GE(n, 4u) << area.toString();
    EXPECT_LE(n, 20u) << area.toString();
  }

  // Aggregate inter-arrival ~2.4 ms.
  const double meanGapMs = toMs(tr.duration) / static_cast<double>(tr.records.size());
  EXPECT_NEAR(meanGapMs, 2.4, 0.4);

  // Sizes within 50-350 B; CDs are valid leaf CDs; times sorted.
  const std::set<Name> leaves(w.map.leafCds().begin(), w.map.leafCds().end());
  SimTime last = 0;
  for (const auto& rec : tr.records) {
    EXPECT_GE(rec.size, 50u);
    EXPECT_LE(rec.size, 350u);
    EXPECT_TRUE(leaves.count(rec.cd)) << rec.cd.toString();
    EXPECT_GE(rec.time, last);
    last = rec.time;
    // The record's CD must match the modified object's area.
    EXPECT_EQ(w.db.object(rec.objectId).leafCd, rec.cd);
  }
}

TEST(CsTrace, HeavyTailedPerPlayerRates) {
  TraceWorld w;
  CsTraceConfig cfg;
  cfg.totalUpdates = 50000;
  const auto tr = generateCsTrace(w.map, w.db, cfg);
  const auto stats = computeStats(w.map, w.db, tr);
  SampleSet s;
  for (auto n : stats.updatesPerPlayer) s.add(static_cast<double>(n));
  // Fig 3c's skew: the busiest player publishes far more than the median.
  EXPECT_GT(s.max(), 4 * s.percentile(0.5));
  EXPECT_GT(s.percentile(0.9), 2 * s.percentile(0.5));
}

TEST(CsTrace, PlayersOnlyTouchVisibleObjects) {
  TraceWorld w;
  CsTraceConfig cfg;
  cfg.totalUpdates = 20000;
  const auto tr = generateCsTrace(w.map, w.db, cfg);
  for (const auto& rec : tr.records) {
    const auto& pos = tr.playerPositions[rec.playerId];
    EXPECT_TRUE(w.map.sees(pos, rec.cd))
        << "player at " << pos.area.toString() << " touched " << rec.cd.toString();
  }
}

TEST(CsTrace, HotspotConcentratesTraffic) {
  TraceWorld w;
  CsTraceConfig cfg;
  cfg.totalUpdates = 40000;
  cfg.hotspotStartFrac = 0.5;
  cfg.hotShare = 0.55;
  cfg.hotAreas = {{"/1/1", 1.0}};
  const auto tr = generateCsTrace(w.map, w.db, cfg);

  std::size_t hotBefore = 0, before = 0, hotAfter = 0, after = 0;
  const SimTime split = tr.duration / 2;
  const Name hot = Name::parse("/1/1");
  for (const auto& rec : tr.records) {
    const bool isHot = rec.cd == hot;
    if (rec.time < split) {
      ++before;
      hotBefore += isHot;
    } else {
      ++after;
      hotAfter += isHot;
    }
  }
  const double fracBefore = static_cast<double>(hotBefore) / static_cast<double>(before);
  const double fracAfter = static_cast<double>(hotAfter) / static_cast<double>(after);
  EXPECT_LT(fracBefore, 0.05) << "one zone of 31 leaves, near-uniform before";
  EXPECT_NEAR(fracAfter, 0.55, 0.05) << "the flash crowd dominates after";
}

TEST(CsTrace, DeterministicForAGivenSeed) {
  TraceWorld w;
  CsTraceConfig cfg;
  cfg.totalUpdates = 5000;
  const auto a = generateCsTrace(w.map, w.db, cfg);
  const auto b = generateCsTrace(w.map, w.db, cfg);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); i += 97) {
    EXPECT_EQ(a.records[i].time, b.records[i].time);
    EXPECT_EQ(a.records[i].playerId, b.records[i].playerId);
    EXPECT_EQ(a.records[i].objectId, b.records[i].objectId);
  }
  cfg.seed = 43;
  const auto c = generateCsTrace(w.map, w.db, cfg);
  EXPECT_NE(a.records[100].objectId, c.records[100].objectId);
}

TEST(MicroTrace, MatchesSectionVA) {
  TraceWorld w;
  MicrobenchTraceConfig cfg;
  const auto tr = generateMicrobenchTrace(w.map, w.db, cfg);
  EXPECT_EQ(tr.playerPositions.size(), 62u);  // 2 players per area
  // ~12k publish events in one minute (paper: 12,044).
  EXPECT_GT(tr.records.size(), 9000u);
  EXPECT_LT(tr.records.size(), 16000u);
  for (const auto& rec : tr.records) {
    EXPECT_LT(rec.time, cfg.duration);
    EXPECT_GE(rec.size, cfg.sizeMin);
    EXPECT_LE(rec.size, cfg.sizeMax);
  }
}

TEST(MicroTrace, PerPlayerPeriodsAreFixed) {
  TraceWorld w;
  MicrobenchTraceConfig cfg;
  cfg.duration = seconds(30);
  const auto tr = generateMicrobenchTrace(w.map, w.db, cfg);
  // Gaps between consecutive events of one player are constant.
  std::map<std::uint32_t, std::vector<SimTime>> times;
  for (const auto& rec : tr.records) times[rec.playerId].push_back(rec.time);
  for (const auto& [player, ts] : times) {
    (void)player;
    ASSERT_GE(ts.size(), 3u);
    const SimTime gap = ts[1] - ts[0];
    EXPECT_GE(gap, cfg.periodMin);
    EXPECT_LE(gap, cfg.periodMax);
    for (std::size_t i = 2; i < ts.size(); ++i) EXPECT_EQ(ts[i] - ts[i - 1], gap);
  }
}

TEST(PlayerAssignment, SmallCountsFallBackToRoundRobin) {
  TraceWorld w;
  Rng rng(3);
  const auto pos = assignPlayersToAreas(w.map, rng, 10, 4, 20);
  EXPECT_EQ(pos.size(), 10u);
}

TEST(PlayerAssignment, MorePlayersThanTheAreasHoldIsRejected) {
  TraceWorld w;
  Rng rng(3);
  const std::size_t capacity = w.map.areas().size() * 20;
  EXPECT_EQ(assignPlayersToAreas(w.map, rng, capacity, 4, 20).size(), capacity);
  EXPECT_THROW(assignPlayersToAreas(w.map, rng, capacity + 1, 4, 20), std::invalid_argument);
}

}  // namespace
}  // namespace gcopss::test
