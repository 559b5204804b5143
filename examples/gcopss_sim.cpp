// gcopss_sim — a command-line driver over the experiment harness, so new
// scenarios can be explored without writing code.
//
//   ./gcopss_sim --stack gcopss --players 414 --updates 20000 --rps 3
//   ./gcopss_sim --stack gcopss --auto --hotspot 0.7
//   ./gcopss_sim --stack hybrid --groups 6
//   ./gcopss_sim --stack ipserver --servers 3
//   ./gcopss_sim --stack ndn --players 62
//   ./gcopss_sim --stack gcopss --two-step --placement vivaldi
//
// Flags: --stack {gcopss|hybrid|ipserver|ndn}  --players N  --updates N
//        --rps N  --servers N  --groups N  --auto  --two-step
//        --hotspot FRAC  --placement {centrality|vivaldi|spread}
//        --topo {rocketfuel|bench6}  --seed N

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>

#include "game/map.hpp"
#include "game/objects.hpp"
#include "gcopss/experiment.hpp"
#include "trace/trace.hpp"

using namespace gcopss;
using namespace gcopss::gc;

namespace {

struct Args {
  std::string stack = "gcopss";
  std::size_t players = 414;
  std::size_t updates = 20000;
  std::size_t rps = 3;
  std::size_t servers = 3;
  std::size_t groups = 6;
  bool autoBalance = false;
  bool twoStep = false;
  double hotspot = 1.0;
  std::string placement = "centrality";
  std::string topo = "rocketfuel";
  std::uint64_t seed = 42;
  std::size_t threads = 0;  // 0 = serial engine
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: gcopss_sim [--stack gcopss|hybrid|ipserver|ndn] [--players N]\n"
               "                  [--updates N] [--rps N] [--servers N] [--groups N]\n"
               "                  [--auto] [--two-step] [--hotspot FRAC]\n"
               "                  [--placement centrality|vivaldi|spread]\n"
               "                  [--topo rocketfuel|bench6] [--seed N]\n"
               "                  [--threads N]   (gcopss stack only; 0 = serial engine,\n"
               "                                   N>=1 = parallel shards, same results)\n");
  std::exit(2);
}

[[noreturn]] void badValue(const std::string& flag, const std::string& want,
                           const std::string& got) {
  std::fprintf(stderr, "gcopss_sim: %s expects %s, got '%s'\n", flag.c_str(), want.c_str(),
               got.c_str());
  std::exit(2);
}

// A whole number in [lo, hi]: digits only, so a sign, a fraction, trailing
// text or a value past hi is rejected instead of thrown or wrapped.
std::uint64_t count(const std::string& flag, const std::string& text, std::uint64_t lo,
                    std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, err] = std::from_chars(text.data(), end, v);
  if (text.empty() || err != std::errc() || stop != end || v < lo || v > hi) {
    badValue(flag, "a whole number in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]",
             text);
  }
  return v;
}

double fraction(const std::string& flag, const std::string& text) {
  char* stop = nullptr;
  const double v = std::strtod(text.c_str(), &stop);
  if (text.empty() || stop != text.c_str() + text.size() || !(v >= 0.0 && v <= 1.0)) {
    badValue(flag, "a fraction in [0, 1]", text);
  }
  return v;
}

std::string oneOf(const std::string& flag, const std::string& text,
                  std::initializer_list<const char*> choices) {
  std::string want;
  for (const char* c : choices) {
    if (text == c) return text;
    want += want.empty() ? c : std::string("|") + c;
  }
  badValue(flag, want, text);
}

// Every value is checked here, before a trace or world exists. The caps keep
// a typo from asking for an unbounded trace or thread count.
constexpr std::uint64_t kMaxUpdates = 100'000'000;
constexpr std::uint64_t kMaxSites = 256;  // RPs, servers, hybrid groups
constexpr std::uint64_t kMaxThreads = 256;

Args parse(int argc, char** argv, std::size_t maxPlayers) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--stack") a.stack = oneOf(flag, value(), {"gcopss", "hybrid", "ipserver", "ndn"});
    else if (flag == "--players") a.players = count(flag, value(), 1, maxPlayers);
    else if (flag == "--updates") a.updates = count(flag, value(), 1, kMaxUpdates);
    else if (flag == "--rps") a.rps = count(flag, value(), 1, kMaxSites);
    else if (flag == "--servers") a.servers = count(flag, value(), 1, kMaxSites);
    else if (flag == "--groups") a.groups = count(flag, value(), 1, kMaxSites);
    else if (flag == "--auto") a.autoBalance = true;
    else if (flag == "--two-step") a.twoStep = true;
    else if (flag == "--hotspot") a.hotspot = fraction(flag, value());
    else if (flag == "--placement") a.placement = oneOf(flag, value(), {"centrality", "vivaldi", "spread"});
    else if (flag == "--topo") a.topo = oneOf(flag, value(), {"rocketfuel", "bench6"});
    else if (flag == "--seed") a.seed = count(flag, value(), 0, UINT64_MAX);
    else if (flag == "--threads") a.threads = count(flag, value(), 0, kMaxThreads);
    else usage();
  }
  return a;
}

void printSummary(const RunSummary& r) {
  std::printf("%s\n", r.label.c_str());
  std::printf("  latency: mean %.2f ms  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
              r.meanMs, r.p50Ms, r.p95Ms, r.p99Ms, r.maxMs);
  std::printf("  deliveries: %llu   network load: %.3f GB   drops: %llu\n",
              static_cast<unsigned long long>(r.deliveries), r.networkGB,
              static_cast<unsigned long long>(r.drops));
  if (r.rpSplits) {
    std::printf("  automatic RP splits: %llu\n",
                static_cast<unsigned long long>(r.rpSplits));
  }
  if (r.unwantedAtEdges || r.filteredAtHosts) {
    std::printf("  aliasing waste: %llu at edges, %llu at hosts\n",
                static_cast<unsigned long long>(r.unwantedAtEdges),
                static_cast<unsigned long long>(r.filteredAtHosts));
  }
  std::printf("  simulator events: %llu\n",
              static_cast<unsigned long long>(r.eventsExecuted));
}

}  // namespace

int main(int argc, char** argv) {
  game::GameMap map({5, 5});
  trace::CsTraceConfig tcfg;
  // The trace places at most playersPerAreaMax players in each area.
  const Args a = parse(argc, argv, map.areas().size() * tcfg.playersPerAreaMax);

  game::ObjectDatabase db(map, game::ObjectDatabase::paperLayerCounts());
  tcfg.players = a.players;
  tcfg.totalUpdates = a.updates;
  tcfg.hotspotStartFrac = a.hotspot;
  tcfg.seed = a.seed;
  const auto trace = trace::generateCsTrace(map, db, tcfg);
  std::printf("workload: %zu players, %zu updates over %.1f s%s\n",
              trace.playerPositions.size(), trace.records.size(), toSec(trace.duration),
              a.hotspot < 1.0 ? " (with flash crowd)" : "");

  const TopoKind topo = a.topo == "bench6" ? TopoKind::Bench6 : TopoKind::Rocketfuel;

  if (a.stack == "ipserver") {
    IpServerRunConfig cfg;
    cfg.topo = topo;
    cfg.numServers = a.servers;
    cfg.seed = a.seed;
    printSummary(runIpServerTrace(map, trace, cfg));
  } else if (a.stack == "ndn") {
    trace::MicrobenchTraceConfig mcfg;
    const auto micro = trace::generateMicrobenchTrace(map, db, mcfg);
    NdnRunConfig cfg;
    cfg.seed = a.seed;
    std::printf("(the NDN baseline runs the 62-player testbed workload)\n");
    printSummary(runNdnMicrobench(map, micro, cfg));
  } else {
    GCopssRunConfig cfg;
    cfg.topo = topo;
    cfg.numRps = a.rps;
    cfg.autoBalance = a.autoBalance;
    cfg.hybrid = a.stack == "hybrid";
    cfg.hybridGroups = a.groups;
    cfg.twoStep = a.twoStep;
    cfg.seed = a.seed;
    cfg.threads = a.threads;
    if (a.placement == "vivaldi") cfg.placement = RpPlacement::Vivaldi;
    else if (a.placement == "spread") cfg.placement = RpPlacement::Spread;
    printSummary(runGCopssTrace(map, trace, cfg));
  }
  return 0;
}
