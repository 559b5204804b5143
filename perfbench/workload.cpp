#include "workload.hpp"

#include <map>

namespace perfbench {

using namespace gcopss;

namespace {

// Fig. 6's per-player rate: the 414-player trace's 2.4 ms aggregate
// inter-arrival, rescaled to 400 players, over a 30 s horizon.
constexpr std::size_t kFig6Players = 400;
constexpr SimTime kFig6Horizon = seconds(30);

// Fig. 5c's flash crowd: the default 414-player trace, zone /1/1 turning hot
// at 70 % of the run.
constexpr std::size_t kHotspotUpdates = 8000;
constexpr double kHotspotStartFrac = 0.7;

}  // namespace

std::optional<WorkloadKind> parseWorkload(const std::string& name) {
  for (WorkloadKind w : {WorkloadKind::Fig6Steady, WorkloadKind::Fig6Sharded,
                         WorkloadKind::HotspotRebalance}) {
    if (name == workloadName(w)) return w;
  }
  return std::nullopt;
}

const char* workloadName(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::Fig6Steady: return "fig6_steady";
    case WorkloadKind::Fig6Sharded: return "fig6_sharded";
    case WorkloadKind::HotspotRebalance: return "hotspot_rebalance";
  }
  return "?";
}

trace::Trace makeTrace(WorkloadKind w, const World& world, std::uint64_t seed) {
  trace::CsTraceConfig t;
  t.seed = seed;
  if (w == WorkloadKind::HotspotRebalance) {
    t.totalUpdates = kHotspotUpdates;
    t.hotspotStartFrac = kHotspotStartFrac;
  } else {
    t.players = kFig6Players;
    t.meanInterArrival =
        static_cast<SimTime>(usF(2400) * 414.0 / static_cast<double>(kFig6Players));
    t.totalUpdates = static_cast<std::size_t>(kFig6Horizon / t.meanInterArrival);
  }
  return trace::generateCsTrace(world.map, world.db, t);
}

gc::GCopssRunConfig makeConfig(WorkloadKind w, bool serial) {
  gc::GCopssRunConfig g;
  g.seed = kDefaultWorldSeed;
  g.cdfPoints = kCdfPoints;
  if (w == WorkloadKind::HotspotRebalance) {
    g.autoBalance = true;
    g.balance.backlogThreshold = ms(150);
    g.balance.cooldown = seconds(5);
    g.uniformBandwidthBps = 10e6;
    g.linkQueues = LinkQueueConfig::dropTail(64 * 1024);
  } else {
    g.numRps = 3;
    if (w == WorkloadKind::Fig6Sharded && !serial) g.threads = 2;
  }
  return g;
}

std::uint64_t expectedDeliveries(const World& world, const trace::Trace& trace,
                                 std::uint64_t sampleEvery) {
  // Players per position, then one sees() per (position, record CD) pair.
  std::map<Name, std::uint64_t> playersAt;
  for (const game::Position& p : trace.playerPositions) ++playersAt[p.area];
  std::map<Name, std::uint64_t> audience;  // leaf CD -> players that see it
  for (const Name& cd : world.map.leafCds()) {
    std::uint64_t n = 0;
    for (const auto& [area, count] : playersAt) {
      if (world.map.sees(game::Position{area}, cd)) n += count;
    }
    audience[cd] = n;
  }
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    if ((i + 1) % sampleEvery != 0) continue;
    const trace::TraceRecord& r = trace.records[i];
    expected += audience.at(r.cd);
    if (world.map.sees(trace.playerPositions[r.playerId], r.cd)) --expected;  // no echo
  }
  return expected;
}

}  // namespace perfbench
