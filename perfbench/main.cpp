// perfbench_pass — one pass of one benchmark workload, in its own process so
// its peak resident set is its own. perfbench/run.py drives it:
//
//   perfbench_pass --workload NAME --seed N --mode MODE [--serial] [--spans PATH]
//
// --seed drives the publication trace; the world (topology, host attachment,
// RP placement) is fixed at kDefaultWorldSeed.
// Modes:
//   timed     untraced replay: phase times, throughput, sim-clock results
//   counters  timed, plus per-layer counters read after the drain
//   traced    HopTracer attached (serial engines): latency decomposition,
//             replayed layer calls, spans written to PATH
//   audit     serial replay under the InvariantChecker with delivery audit
//
// Prints one JSON object on stdout; diagnostics go to stderr.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "check/invariants.hpp"
#include "common/hash.hpp"
#include "copss/router.hpp"
#include "des/parallel.hpp"
#include "des/simulator.hpp"
#include "net/network.hpp"
#include "spans.hpp"
#include "tracer.hpp"
#include "workload.hpp"

namespace {

using namespace gcopss;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

// Publications traced hop by hop: those with seq % kSampleEvery == 0.
constexpr std::uint64_t kSampleEvery = 64;

double since(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// CPU seconds this process has used, over all its threads.
double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Flat JSON object, keys in insertion order, numbers with all their digits.
class Json {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) { raw(key, std::to_string(v)); }
  void flag(const std::string& key, bool v) { raw(key, v ? "true" : "false"); }
  void strings(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (const std::string& e : v) {
      if (s.size() > 1) s += ",";
      s += quote(e);
    }
    raw(key, s + "]");
  }
  void append(const Json& other) {
    if (other.body_.empty()) return;
    if (!body_.empty()) body_ += ",";
    body_ += other.body_;
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return out + "\"";
  }
  void raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += quote(key) + ":" + value;
  }
  std::string body_;
};

struct Args {
  WorkloadKind workload = WorkloadKind::Fig6Steady;
  std::uint64_t seed = 1;
  std::string mode;
  bool serial = false;
  std::string spansPath;
};

bool parseArgs(int argc, char** argv, Args& a) {
  bool haveWorkload = false;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--workload" && hasValue) {
      const auto w = parseWorkload(argv[++i]);
      if (!w) return false;
      a.workload = *w;
      haveWorkload = true;
    } else if (arg == "--seed" && hasValue) {
      char* end = nullptr;
      a.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return false;
      haveSeed = true;
    } else if (arg == "--mode" && hasValue) {
      a.mode = argv[++i];
    } else if (arg == "--spans" && hasValue) {
      a.spansPath = argv[++i];
    } else if (arg == "--serial") {
      a.serial = true;
    } else {
      return false;
    }
  }
  const bool knownMode =
      a.mode == "timed" || a.mode == "counters" || a.mode == "traced" || a.mode == "audit";
  return haveWorkload && haveSeed && knownMode;
}

double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// The end-to-end sim-clock results every mode reports, so run.py can check
// that passes of one seed agree exactly.
void putSimResults(Json& j, const gc::RunSummary& s, std::uint64_t expected) {
  j.count("deliveries", s.deliveries);
  j.count("expected_deliveries", expected);
  j.num("latency_p50_ms", s.p50Ms);
  j.num("latency_p99_ms", s.p99Ms);
  j.num("latency_p9999_ms",
        s.latencyCdfMs.size() == kCdfPoints ? s.latencyCdfMs[kCdfPoints - 2].first : 0.0);
  j.num("network_gb", s.networkGB);
  j.count("events", s.eventsExecuted);
  j.count("link_packets", s.linkPackets);
  j.count("rp_splits", s.rpSplits);
}

// Parallel-engine partition counters; all zero on the serial engine.
void putParallelCounters(Json& j, Network& net) {
  double rounds = 0, phases = 0, eventsPerRound = 0, imbalance = 0;
  std::map<std::string, std::pair<double, double>> cut;  // tier -> (cut, links)
  for (const char* tier : {"host_edge", "edge_core", "core"}) cut[tier] = {0, 0};
  if (ParallelSimulator* ps = net.parallel()) {
    rounds = static_cast<double>(ps->rounds());
    phases = static_cast<double>(ps->globalPhases());
    double shardSum = 0, shardMax = 0;
    for (std::size_t i = 0; i < ps->workerCount(); ++i) {
      const auto e = static_cast<double>(ps->shard(i).totalEventsExecuted());
      shardSum += e;
      shardMax = std::max(shardMax, e);
    }
    eventsPerRound = ratio(shardSum, rounds);
    imbalance = ratio(shardMax, shardSum / static_cast<double>(ps->workerCount()));
    const Topology& topo = net.topology();
    for (const Topology::Link& l : topo.links()) {
      const std::string& a = topo.label(l.a);
      const std::string& b = topo.label(l.b);
      auto is = [](const std::string& label, const char* kind) {
        return label.rfind(kind, 0) == 0;  // topo_factory labels: coreN, edgeN_M, hostN
      };
      const char* tier = (is(a, "host") || is(b, "host"))   ? "host_edge"
                         : (is(a, "edge") || is(b, "edge")) ? "edge_core"
                                                            : "core";
      auto& [c, n] = cut[tier];
      n += 1;
      if (net.shardOf(l.a) != net.shardOf(l.b)) c += 1;
    }
  }
  j.num("par.rounds", rounds);
  j.num("par.global_phases", phases);
  j.num("par.events_per_round", eventsPerRound);
  j.num("par.shard_imbalance", imbalance);
  for (const auto& [tier, cn] : cut) {
    j.num("par.cut_link_share." + tier, ratio(cn.first, cn.second));
  }
}

void putRouterCounters(Json& j, const std::vector<copss::CopssRouter*>& routers) {
  std::uint64_t hits = 0, misses = 0, fp = 0, fwd = 0, decaps = 0, dups = 0, splits = 0;
  for (const copss::CopssRouter* r : routers) {
    hits += r->st().matchCacheHits();
    misses += r->st().matchCacheMisses();
    fp += r->st().bloomFalsePositives();
    fwd += r->multicastsForwarded();
    decaps += r->rpDecapsulations();
    dups += r->duplicatesSuppressed();
    splits += r->splitsInitiated();
  }
  j.num("st.match_calls", static_cast<double>(hits + misses));
  j.num("st.cache_hit_ratio", ratio(static_cast<double>(hits), static_cast<double>(hits + misses)));
  j.num("st.bloom_fp", static_cast<double>(fp));
  j.num("router.multicasts_forwarded", static_cast<double>(fwd));
  j.num("router.rp_decaps", static_cast<double>(decaps));
  j.num("router.dup_suppressed_ratio",
        ratio(static_cast<double>(dups), static_cast<double>(fwd + dups)));
  j.num("balancer.splits", static_cast<double>(splits));
}

void putQueueCounters(Json& j, const gc::RunSummary& s) {
  j.num("queue.mean_sojourn_ms", s.queueMeanSojournMs);
  j.num("queue.max_sojourn_ms", s.queueMaxSojournMs);
  j.num("queue.peak_bytes", static_cast<double>(s.queuePeakBytes));
  j.num("queue.drops", static_cast<double>(s.queueDrops));
}

// ---- timed / counters ----------------------------------------------------

int runTimed(const Args& a, bool counters) {
  const auto t0 = Clock::now();
  const World world;
  const trace::Trace trace = makeTrace(a.workload, world, a.seed);
  const auto tTrace = Clock::now();

  Json extra;
  Clock::time_point tReady, tDrained;
  double cpuReady = 0, cpuDrained = 0;
  std::uint64_t allocs0 = 0, allocs1 = 0;
  gc::GCopssRunConfig cfg = makeConfig(a.workload, a.serial);
  cfg.onWorldReady = [&](const gc::GCopssRunConfig::WorldView&) {
    tReady = Clock::now();
    cpuReady = processCpuSeconds();
    allocs0 = allocationsSoFar();
  };
  cfg.onRunDrained = [&](const gc::GCopssRunConfig::WorldView& wv) {
    tDrained = Clock::now();
    cpuDrained = processCpuSeconds();
    allocs1 = allocationsSoFar();
    if (!counters) return;
    putParallelCounters(extra, wv.net);
    putRouterCounters(extra, wv.routers);
  };
  const gc::RunSummary s = gc::runGCopssTrace(world.map, trace, cfg);
  const auto tEnd = Clock::now();
  const double rss = peakRssMb();
  const std::uint64_t expected = expectedDeliveries(world, trace);

  const double runS = since(tReady, tDrained);
  Json j;
  j.num("setup_s", since(t0, tReady));
  j.num("wall_s", since(t0, tEnd));
  j.num("deliveries_per_s", ratio(static_cast<double>(s.deliveries), runS));
  j.num("peak_rss_mb", rss);
  j.num("trace.gen_s", since(t0, tTrace));
  j.num("gcopss.build_s", since(tTrace, tReady));
  j.num("des.run_s", runS);
  j.num("des.run_cpu_s", cpuDrained - cpuReady);
  j.num("metrics.summarise_s", since(tDrained, tEnd));
  j.num("net.allocs_per_event",
        ratio(static_cast<double>(allocs1 - allocs0), static_cast<double>(s.eventsExecuted)));
  putSimResults(j, s, expected);
  if (counters) putQueueCounters(j, s);
  j.append(extra);
  j.print();
  return 0;
}

// ---- audit -----------------------------------------------------------------

int runAudit(const Args& a) {
  const World world;
  const trace::Trace trace = makeTrace(a.workload, world, a.seed);
  gc::GCopssRunConfig cfg = makeConfig(a.workload, /*serial=*/true);

  std::map<std::string, std::uint64_t> byInvariant;
  for (auto inv : {check::Invariant::PrefixFreeRp, check::Invariant::StSoundness,
                   check::Invariant::MigrationDelivery, check::Invariant::PacketConservation,
                   check::Invariant::LoopFreedom, check::Invariant::EpochMonotonic}) {
    byInvariant[check::invariantName(inv)] = 0;
  }
  std::vector<std::string> lines;
  std::uint64_t missedDeliveries = 0;
  std::uint64_t missedSampled = 0;  // of publications the traced pass samples
  std::unique_ptr<check::InvariantChecker> checker;
  cfg.onWorldReady = [&](const gc::GCopssRunConfig::WorldView& wv) {
    check::InvariantChecker::Options o;
    o.checkDelivery = true;
    o.maxViolations = std::size_t{1} << 24;
    checker = std::make_unique<check::InvariantChecker>(wv.net, wv.routers, wv.clients, o);
    checker->schedulePeriodic(seconds(1), cfg.warmup + trace.duration + seconds(1));
  };
  cfg.onRunDrained = [&](const gc::GCopssRunConfig::WorldView&) {
    checker->finalAudit();
    for (const check::Violation& v : checker->violations()) {
      ++byInvariant[check::invariantName(v.invariant)];
      if (v.invariant == check::Invariant::MigrationDelivery && !v.witnessSeqs.empty()) {
        ++missedDeliveries;
        if (v.witnessSeqs.front() % kSampleEvery == 0) ++missedSampled;
      }
    }
    std::string report = checker->reportText();
    for (std::size_t pos = 0; pos < report.size();) {
      const std::size_t nl = report.find('\n', pos);
      const std::size_t end = nl == std::string::npos ? report.size() : nl;
      lines.push_back(report.substr(pos, end - pos));
      pos = end + 1;
    }
    checker.reset();  // detach before the Network is torn down
  };
  const gc::RunSummary s = gc::runGCopssTrace(world.map, trace, cfg);
  Json j;
  putSimResults(j, s, expectedDeliveries(world, trace));
  for (const auto& [name, n] : byInvariant) {
    j.num("check.violations." + name, static_cast<double>(n));
  }
  j.count("missed_deliveries_audited", missedDeliveries);
  j.count("missed_sampled_deliveries_audited", missedSampled);
  j.strings("audit_report", lines);
  j.print();
  return 0;
}

// ---- traced ----------------------------------------------------------------

// Handler sized like the network hot path's captures (this pointer, two face
// ids, a packet pointer): 32 bytes.
struct DispatchTick {
  Simulator* sim;
  std::uint64_t* remaining;
  std::uint64_t state;
  std::uint64_t salt;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    const std::uint64_t next = mix64(state ^ salt);
    sim->schedule(static_cast<SimTime>(next % 997) + 1, DispatchTick{sim, remaining, next, ~next});
  }
};
static_assert(sizeof(DispatchTick) == 32);

// ns per Simulator::schedule + dispatch, 64 self-rescheduling strands.
double dispatchNs(std::uint64_t events) {
  Simulator sim;
  constexpr std::size_t kStrands = 64;
  std::vector<std::uint64_t> remaining(kStrands, events / kStrands);
  for (std::size_t i = 0; i < kStrands; ++i) {
    sim.scheduleAt(static_cast<SimTime>(i),
                   DispatchTick{&sim, &remaining[i], 0x9e3779b97f4a7c15ULL * (i + 1), 0});
  }
  const auto t0 = Clock::now();
  const std::uint64_t ran = sim.run();
  return ratio(since(t0, Clock::now()) * 1e9, static_cast<double>(ran));
}

int runTraced(const Args& a) {
  SpanLog spans;
  const std::int64_t pass = spans.open("pass");
  const std::int64_t gen = spans.open("trace.generate", pass);
  const World world;
  const trace::Trace trace = makeTrace(a.workload, world, a.seed);
  spans.close(gen);

  gc::GCopssRunConfig cfg = makeConfig(a.workload, a.serial);
  const bool observe = cfg.threads == 0;  // observers are serial-only
  std::unique_ptr<HopTracer> tracer;
  std::int64_t harness = -1, build = -1, run = -1, summarise = -1;
  cfg.onWorldReady = [&](const gc::GCopssRunConfig::WorldView& wv) {
    spans.close(build);
    if (observe) {
      tracer = std::make_unique<HopTracer>(wv, world.map, trace, kSampleEvery);
      wv.net.setObserver(tracer.get());
    }
    run = spans.open("des.run", harness);
  };
  // Observer-derived results stay zero on the parallel engine, which takes
  // no tap.
  HopTracer::Decomposition d;
  HopTracer::ReplayTimes r;
  std::uint64_t fibLookups = 0;
  std::uint64_t controlPackets = 0;
  std::array<std::uint64_t, 5> drops{};
  cfg.onRunDrained = [&](const gc::GCopssRunConfig::WorldView& wv) {
    spans.close(run);
    if (!tracer) {
      // Only queue refusals can be told apart without a tap, so every other
      // drop must be absent.
      drops[static_cast<std::size_t>(DropReason::QueueDrop)] = wv.net.totalQueueDrops();
      if (wv.net.totalDrops() != wv.net.totalQueueDrops()) {
        d.failures.push_back("drops other than queue refusals cannot be attributed without a tap");
      }
      summarise = spans.open("metrics.summarise", harness);
      return;
    }
    wv.net.setObserver(nullptr);
    // Replays need the routers, which die with the world: do them now.
    const std::int64_t decompose = spans.open("trace.decompose", harness);
    d = tracer->decompose(spans);
    spans.close(decompose);
    r = tracer->replay(spans, harness, 0.25);
    fibLookups = tracer->fibLookups();
    controlPackets = tracer->migrationControlPackets();
    drops = tracer->dropsByReason();
    tracer.reset();
    summarise = spans.open("metrics.summarise", harness);
  };
  harness = spans.open("gcopss.runGCopssTrace", pass);
  build = spans.open("gcopss.build", harness);
  gc::runGCopssTrace(world.map, trace, cfg);
  spans.close(summarise);
  spans.close(harness);

  Json j;
  j.num("lat.samples", static_cast<double>(d.deliveries));
  j.count("lat.expected_samples", observe ? expectedDeliveries(world, trace, kSampleEvery) : 0);
  for (Leg leg : {Leg::ToRp, Leg::Rp, Leg::Fanout}) {
    for (Component c : {Component::Propagation, Component::Serialization, Component::FaceQueue,
                        Component::CpuWait, Component::Service}) {
      const bool wire = c != Component::CpuWait && c != Component::Service;
      if (leg == Leg::Rp && wire) continue;  // the RP leg has no wire
      const SimTime sum = d.sum[static_cast<std::size_t>(leg)][static_cast<std::size_t>(c)];
      j.num(std::string("lat.") + legName(leg) + "." + componentName(c) + "_ms",
            d.deliveries ? toMs(sum) / static_cast<double>(d.deliveries) : 0.0);
    }
  }
  j.num("st.match_ns", r.stNs);
  j.num("fib.lpm_ns", r.lpmNs);
  j.num("seq.check_ns", r.seqNs);
  j.num("fib.lookups", static_cast<double>(fibLookups));
  j.num("migration.control_packets", static_cast<double>(controlPackets));
  for (auto reason : {DropReason::WireFault, DropReason::NodeFailed, DropReason::BufferFull,
                      DropReason::CrashedQueued, DropReason::QueueDrop}) {
    j.num(std::string("net.drops.") + dropReasonName(reason),
          static_cast<double>(drops[static_cast<std::size_t>(reason)]));
  }
  const std::int64_t dispatch = spans.open("des.dispatch_loop", pass);
  j.num("des.dispatch_ns", dispatchNs(2'000'000));
  spans.close(dispatch);
  spans.close(pass);
  j.num("des.run_s", spans.seconds(run));
  j.flag("observed", observe);
  j.strings("selfcheck_failures", d.failures);
  if (!a.spansPath.empty() && !spans.write(a.spansPath)) {
    std::fprintf(stderr, "perfbench_pass: cannot write spans to %s\n", a.spansPath.c_str());
    return 1;
  }
  j.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parseArgs(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload fig6_steady|fig6_sharded|hotspot_rebalance --seed N "
                 "--mode timed|counters|traced|audit [--serial] [--spans PATH]\n",
                 argv[0]);
    return 2;
  }
  if (a.mode == "audit") return runAudit(a);
  if (a.mode == "traced") return runTraced(a);
  return runTimed(a, a.mode == "counters");
}
