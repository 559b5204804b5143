#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "copss/balancer.hpp"
#include "copss/st.hpp"
#include "game/map.hpp"
#include "game/objects.hpp"
#include "metrics/latency.hpp"
#include "net/params.hpp"
#include "net/queue.hpp"
#include "trace/trace.hpp"

namespace gcopss {
class Network;
}
namespace gcopss::copss {
class CopssRouter;
}

namespace gcopss::gc {

class GCopssClient;

enum class TopoKind {
  Bench6,      // the six-router lab topology of Fig. 3b
  Rocketfuel,  // the Rocketfuel-like backbone (79 core + 158 edge routers)
};

// Outcome of one trace replay under a given stack.
struct RunSummary {
  std::string label;
  double meanMs = 0.0;
  double p50Ms = 0.0;
  double p95Ms = 0.0;
  double p99Ms = 0.0;
  double maxMs = 0.0;
  std::uint64_t deliveries = 0;
  double networkGB = 0.0;
  std::uint64_t linkPackets = 0;
  std::uint64_t drops = 0;
  // Face-queue view (all zero unless the run enabled link queues).
  std::uint64_t queueDrops = 0;
  double queueMeanSojournMs = 0.0;
  double queueMaxSojournMs = 0.0;
  Bytes queuePeakBytes = 0;
  std::uint64_t rpSplits = 0;
  std::uint64_t eventsExecuted = 0;
  std::uint64_t bloomFalsePositives = 0;
  std::uint64_t unwantedAtEdges = 0;  // hybrid aliasing waste
  std::uint64_t filteredAtHosts = 0;
  // Per-publication latency spread over the run (Fig. 5's x-axis).
  std::vector<metrics::LatencyRecorder::SeriesPoint> series;
  // Latency CDF points (ms, cumulative fraction) (Fig. 4).
  std::vector<std::pair<double, double>> latencyCdfMs;
};

// How RP (and hybrid group-RP) sites are chosen among the core routers.
// The paper delegates this to a network-coordinate system (Vivaldi, cited in
// Section IV-B); `Centrality` is the omniscient upper bound, `Vivaldi` the
// decentralized estimate, `Spread` a coordinate-free strawman.
enum class RpPlacement {
  Centrality,
  Vivaldi,
  Spread,
};

// ---- G-COPSS / hybrid-G-COPSS ----
struct GCopssRunConfig {
  TopoKind topo = TopoKind::Rocketfuel;
  SimParams params = SimParams::largeScale();
  RpPlacement placement = RpPlacement::Centrality;

  // RP placement. If `explicitAssignment` is non-empty, entry i lists the CD
  // prefixes (textual, e.g. "/1", "/_") served by RP i. Otherwise the leaf
  // CDs are balanced over `numRps` RPs weighted by their trace traffic.
  std::vector<std::vector<std::string>> explicitAssignment;
  std::size_t numRps = 3;
  bool loadAwareAssignment = true;

  // Dynamic RP balancing (Section IV-B): start with a single root RP and let
  // queueing trigger splits.
  bool autoBalance = false;
  copss::RpLoadBalancer::Options balance;

  // Hybrid-G-COPSS (Section III-D): IP-speed core + CD->group aliasing at
  // the edges. `numRps` is ignored; each group gets a core RP.
  bool hybrid = false;
  std::size_t hybridGroups = 6;

  // COPSS two-step dissemination: multicast a snippet, subscribers pull the
  // payload by name (bench_ablation compares this against the one-step push
  // the paper chose for gaming).
  bool twoStep = false;

  copss::SubscriptionTable::Options stOptions;
  std::uint64_t seed = 1;
  SimTime warmup = ms(500);

  // Finite-bandwidth links. uniformBandwidthBps > 0 overrides every link's
  // capacity (the saturation knob for bench_congestion); linkQueues.enabled
  // puts a per-face transmit queue on every directed link (net/queue.hpp).
  // Defaults preserve the legacy infinite-buffer behaviour bit-for-bit.
  double uniformBandwidthBps = 0.0;
  LinkQueueConfig linkQueues;

  // Event engine. 0 = the classic serial Simulator. N >= 1 = the
  // ParallelSimulator with N worker shards (nodes partitioned by
  // partitionShards so short links stay inside a shard; conservative
  // lookahead = the minimum delay over the links it cuts). Results are
  // bit-identical across N — including N=1 vs the serial engine — by the
  // deterministic-merge contract (docs/ARCHITECTURE.md). Fault plans used
  // with threads > 0 must be built withIndependentStreams().
  std::size_t threads = 0;
  std::size_t seriesPoints = 60;
  std::size_t cdfPoints = 50;

  // Observability hooks. `onWorldReady` fires once the world is fully wired
  // (routers, clients, RP assignment, subscriptions scheduled) but before
  // run(); `onRunDrained` fires after the event queue drains, before
  // teardown. Lets a caller attach an InvariantChecker or a custom
  // PacketObserver to the live Network without duplicating the scenario —
  // this is how bench_core certifies its throughput numbers leak-free
  // (ROADMAP: "wire the invariant checker into the experiment harness").
  struct WorldView {
    Network& net;
    const std::vector<copss::CopssRouter*>& routers;
    const std::vector<GCopssClient*>& clients;
  };
  std::function<void(const WorldView&)> onWorldReady;
  std::function<void(const WorldView&)> onRunDrained;
};

// Throws std::invalid_argument, before building anything, for an invalid
// stOptions Bloom geometry (SubscriptionTable::validate).
RunSummary runGCopssTrace(const game::GameMap& map, const trace::Trace& trace,
                          const GCopssRunConfig& cfg);

// ---- IP client/server baseline ----
struct IpServerRunConfig {
  TopoKind topo = TopoKind::Rocketfuel;
  SimParams params = SimParams::largeScale();
  std::size_t numServers = 3;
  std::uint64_t seed = 1;
  SimTime warmup = ms(500);
  std::size_t seriesPoints = 60;
  std::size_t cdfPoints = 50;
  // Finite-bandwidth links (see GCopssRunConfig). serverUplinkBps > 0
  // additionally pins each server's attach link — the saturated-uplink
  // scenario where the unicast fan-out melts first (applied after the
  // uniform override).
  double uniformBandwidthBps = 0.0;
  double serverUplinkBps = 0.0;
  LinkQueueConfig linkQueues;
};

RunSummary runIpServerTrace(const game::GameMap& map, const trace::Trace& trace,
                            const IpServerRunConfig& cfg);

// ---- pure NDN (VoCCN/ACT) baseline, testbed scale ----
struct NdnRunConfig {
  SimParams params = SimParams::microbench();
  std::size_t window = 3;           // pipelined Interests per peer
  SimTime accumulation = ms(100);   // update accumulation t
  SimTime rto = seconds(1);
  SimTime dropBacklog = seconds(3);  // finite router buffers -> loss
  std::uint64_t seed = 1;
  SimTime warmup = ms(500);
  SimTime drainAfter = seconds(10);  // extra time past the trace end
  std::size_t cdfPoints = 50;
};

RunSummary runNdnMicrobench(const game::GameMap& map, const trace::Trace& trace,
                            const NdnRunConfig& cfg);

}  // namespace gcopss::gc
