#pragma once

// The benchmark's three trace-replay workloads. Each is an open loop in
// simulated time: every trace record is published at its trace time,
// whatever the backlog, and latency is measured from that due time.

#include <cstdint>
#include <optional>
#include <string>

#include "game/map.hpp"
#include "game/objects.hpp"
#include "gcopss/experiment.hpp"
#include "trace/trace.hpp"

namespace perfbench {

enum class WorkloadKind {
  Fig6Steady,        // Fig. 6 @ 400 players, 3 load-aware RPs, serial engine
  Fig6Sharded,       // the same inputs on the parallel engine, 2 shards
  HotspotRebalance,  // Fig. 5c: one auto-balancing root RP, 10 Mb/s links
};

std::optional<WorkloadKind> parseWorkload(const std::string& name);
const char* workloadName(WorkloadKind w);

// The paper's evaluation world: 1 world -> 5 regions -> 25 zones.
struct World {
  gcopss::game::GameMap map{{5, 5}};
  gcopss::game::ObjectDatabase db{map, gcopss::game::ObjectDatabase::paperLayerCounts()};
};

// The publication trace of `w`; `seed` drives the trace generator.
gcopss::trace::Trace makeTrace(WorkloadKind w, const World& world, std::uint64_t seed);

// The world seed every Fig. 6 bench uses: the Rocketfuel-like backbone, host
// attachment and RP placement the benchmark replays its traces on.
constexpr std::uint64_t kDefaultWorldSeed = 1;

// The harness configuration of `w`. `serial` forces the serial engine (the
// sharded workload's serial reference and audited passes).
gcopss::gc::GCopssRunConfig makeConfig(WorkloadKind w, bool serial);

// Deliveries a loss-free run must make, computed without the simulator:
// every trace record times every other player whose position sees the
// record's CD. With `sampleEvery` > 1, only the records whose publication
// seq (record index + 1) is a multiple of it count.
std::uint64_t expectedDeliveries(const World& world, const gcopss::trace::Trace& trace,
                                 std::uint64_t sampleEvery = 1);

// Enough CDF points that point 9999 is the 99.99th percentile.
constexpr std::size_t kCdfPoints = 10000;

}  // namespace perfbench
