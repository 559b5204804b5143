// bench_core — hot-path throughput harness for the simulation core.
//
// Two workloads, one JSON report:
//   1. A pure event-loop microbench: 64 self-rescheduling strands whose
//      handlers carry ~32-byte captures (the size class of the network hot
//      path's transmit/enqueueCpu lambdas), measuring events/sec, ns/event
//      and — via a global operator new interposer — allocations/event.
//   2. The Fig. 6 scaling scenario at its heaviest point (400 players,
//      3 RPs), timed clean and then re-run with the InvariantChecker
//      attached through GCopssRunConfig::onWorldReady/onRunDrained so the
//      throughput numbers are certified leak-free (strict end-of-run packet
//      conservation plus the state invariants), not just fast.
//
// Usage: bench_core [--quick] [--out PATH]
//   --quick  CI-sized run (~10x smaller); same schema, field "mode": "quick"
//   --out    where to write the JSON (default bench_results/BENCH_core.json)
//
// The committed /BENCH_core.json keeps a {"before": ..., "after": ...} pair
// from this harness across the hot-path overhaul; scripts/bench_check.py
// compares a fresh --quick run against the committed "after" baseline.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>

#include "bench_common.hpp"
#include "check/invariants.hpp"
#include "common/hash.hpp"
#include "des/simulator.hpp"

// ---------------------------------------------------------------------------
// Global allocation interposer. Single-threaded process (the DES is serial),
// so plain counters are exact. Replacing these signatures covers every
// new/delete in the binary, including the standard library's.
//
// GCC inlines the malloc-backed replacements into callers and then flags the
// (correct) malloc/free pairing as a new/delete mismatch; silence that false
// positive for this TU only.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::uint64_t g_news = 0;
std::uint64_t g_deletes = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept {
  if (p) ++g_deletes;
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_news;
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p, std::align_val_t) noexcept {
  if (p) ++g_deletes;
  std::free(p);
}
void operator delete[](void* p, std::align_val_t al) noexcept { ::operator delete(p, al); }
void operator delete(void* p, std::size_t, std::align_val_t al) noexcept {
  ::operator delete(p, al);
}
void operator delete[](void* p, std::size_t, std::align_val_t al) noexcept {
  ::operator delete(p, al);
}

namespace {

using namespace gcopss;
using namespace gcopss::gc;

double wallSeconds(std::chrono::steady_clock::time_point a,
                   std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Measurement {
  std::uint64_t events = 0;
  double wallSec = 0.0;
  std::uint64_t allocs = 0;

  double eventsPerSec() const { return wallSec > 0 ? static_cast<double>(events) / wallSec : 0; }
  double nsPerEvent() const {
    return events > 0 ? wallSec * 1e9 / static_cast<double>(events) : 0;
  }
  double allocsPerEvent() const {
    return events > 0 ? static_cast<double>(allocs) / static_cast<double>(events) : 0;
  }
};

// ---- workload 1: pure event loop --------------------------------------

struct Strand {
  std::uint64_t remaining = 0;
  std::uint64_t state = 0;
};

struct LoopWorld {
  Simulator sim;
  std::vector<Strand> strands;
};

// Handler functor sized like the network hot path's captures (this pointer,
// two face ids, a packet pointer): 32 bytes — larger than libstdc++
// std::function's inline buffer, so the heap cost it models is real.
struct Tick {
  LoopWorld* w;
  std::uint64_t idx;
  std::uint64_t salt;
  std::uint64_t salt2;
  void operator()() const {
    Strand& s = w->strands[idx];
    if (s.remaining == 0) return;
    --s.remaining;
    s.state = mix64(s.state ^ salt ^ salt2);
    w->sim.schedule(static_cast<SimTime>(s.state % 997) + 1, Tick{w, idx, s.state, ~s.state});
  }
};
static_assert(sizeof(Tick) == 32);

Measurement runEventLoop(std::uint64_t totalEvents) {
  LoopWorld w;
  constexpr std::size_t kStrands = 64;
  w.strands.resize(kStrands);
  for (std::size_t i = 0; i < kStrands; ++i) {
    w.strands[i] = {totalEvents / kStrands, 0x9e3779b97f4a7c15ULL * (i + 1)};
    w.sim.scheduleAt(static_cast<SimTime>(i), Tick{&w, i, w.strands[i].state, 0});
  }
  const std::uint64_t allocs0 = g_news;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t ran = w.sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  Measurement m;
  m.events = ran;
  m.wallSec = wallSeconds(t0, t1);
  m.allocs = g_news - allocs0;
  return m;
}

// ---- workload 2: fig6 scaling scenario at 400 players ------------------

struct Fig6Result {
  Measurement timed;
  RunSummary summary;
  // audited re-run
  bool auditOk = false;
  std::size_t auditViolations = 0;
  std::uint64_t audits = 0;
  std::uint64_t publicationsTracked = 0;
  std::string auditReport;
};

trace::Trace makeFig6Trace(const game::GameMap& map, const game::ObjectDatabase& db,
                           SimTime duration) {
  trace::CsTraceConfig tcfg;
  tcfg.players = 400;
  tcfg.meanInterArrival = static_cast<SimTime>(usF(2400) * 414.0 / 400.0);
  tcfg.totalUpdates = static_cast<std::size_t>(duration / tcfg.meanInterArrival);
  tcfg.seed = 42 + tcfg.players;
  return trace::generateCsTrace(map, db, tcfg);
}

Fig6Result runFig6(SimTime duration) {
  const auto map = bench::paperMap();
  const auto db = bench::paperObjects(map);
  const auto trace = makeFig6Trace(map, db, duration);

  Fig6Result out;

  {  // timed pass: no observer in the way.
    GCopssRunConfig g;
    g.numRps = 3;
    const std::uint64_t allocs0 = g_news;
    const auto t0 = std::chrono::steady_clock::now();
    out.summary = runGCopssTrace(map, trace, g);
    const auto t1 = std::chrono::steady_clock::now();
    out.timed.events = out.summary.eventsExecuted;
    out.timed.wallSec = wallSeconds(t0, t1);
    out.timed.allocs = g_news - allocs0;
  }

  {  // audited pass: same world, InvariantChecker observing every packet.
    GCopssRunConfig g;
    g.numRps = 3;
    std::unique_ptr<check::InvariantChecker> checker;
    g.onWorldReady = [&](const GCopssRunConfig::WorldView& wv) {
      checker = std::make_unique<check::InvariantChecker>(wv.net, wv.routers, wv.clients);
      checker->schedulePeriodic(seconds(1), duration + seconds(1));
    };
    g.onRunDrained = [&](const GCopssRunConfig::WorldView&) {
      checker->finalAudit();
      out.auditOk = checker->ok();
      out.auditViolations = checker->violations().size();
      out.audits = checker->stats().audits;
      out.publicationsTracked = checker->stats().publicationsTracked;
      if (!out.auditOk) out.auditReport = checker->reportText();
      checker.reset();  // detach before the Network is torn down
    };
    (void)runGCopssTrace(map, trace, g);
  }
  return out;
}

// ---- report ------------------------------------------------------------

long peakRssKb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void writeMeasurement(std::FILE* f, const char* key, const Measurement& m, bool trailingComma) {
  std::fprintf(f,
               "    \"%s\": {\n"
               "      \"events\": %llu,\n"
               "      \"wall_sec\": %.6f,\n"
               "      \"events_per_sec\": %.1f,\n"
               "      \"ns_per_event\": %.2f,\n"
               "      \"allocs\": %llu,\n"
               "      \"allocs_per_event\": %.4f\n"
               "    }%s\n",
               key, static_cast<unsigned long long>(m.events), m.wallSec, m.eventsPerSec(),
               m.nsPerEvent(), static_cast<unsigned long long>(m.allocs), m.allocsPerEvent(),
               trailingComma ? "," : "");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string outPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  if (outPath.empty()) outPath = bench::resultPath("BENCH_core.json");

  bench::printHeader("core hot-path throughput (event loop + Fig. 6 @ 400 players)",
                     "perf harness; not a paper figure");

  const std::uint64_t loopEvents = quick ? 400'000 : 4'000'000;
  const SimTime fig6Duration = quick ? seconds(3) : seconds(30);

  std::printf("[1/2] event-loop microbench: %llu events...\n",
              static_cast<unsigned long long>(loopEvents));
  std::fflush(stdout);
  const Measurement loop = runEventLoop(loopEvents);
  std::printf("      %.0f events/sec, %.1f ns/event, %.3f allocs/event\n", loop.eventsPerSec(),
              loop.nsPerEvent(), loop.allocsPerEvent());

  std::printf("[2/2] fig6 scenario (400 players, 3 RPs, %lld s sim)...\n",
              static_cast<long long>(fig6Duration / kSecond));
  std::fflush(stdout);
  const Fig6Result fig6 = runFig6(fig6Duration);
  std::printf("      %.0f events/sec, %.1f ns/event, %.3f allocs/event, mean latency %.2f ms\n",
              fig6.timed.eventsPerSec(), fig6.timed.nsPerEvent(), fig6.timed.allocsPerEvent(),
              fig6.summary.meanMs);
  std::printf("      audit: %s (%llu audits, %llu publications tracked, %zu violations)\n",
              fig6.auditOk ? "clean" : "VIOLATIONS", static_cast<unsigned long long>(fig6.audits),
              static_cast<unsigned long long>(fig6.publicationsTracked), fig6.auditViolations);
  if (!fig6.auditOk) std::printf("%s\n", fig6.auditReport.c_str());

  const long rssKb = peakRssKb();
  std::FILE* f = std::fopen(outPath.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"gcopss-bench-core-v1\",\n  \"mode\": \"%s\",\n",
               quick ? "quick" : "full");
  std::fprintf(f, "  \"peak_rss_kb\": %ld,\n", rssKb);
  std::fprintf(f, "  \"event_loop\": {\n");
  writeMeasurement(f, "loop", loop, false);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fig6\": {\n");
  std::fprintf(f, "    \"players\": 400,\n    \"sim_seconds\": %lld,\n",
               static_cast<long long>(fig6Duration / kSecond));
  writeMeasurement(f, "timed", fig6.timed, true);
  std::fprintf(f,
               "    \"deliveries\": %llu,\n"
               "    \"mean_latency_ms\": %.3f,\n"
               "    \"p99_latency_ms\": %.3f,\n"
               "    \"link_packets\": %llu,\n"
               "    \"audit\": {\n"
               "      \"ok\": %s,\n"
               "      \"violations\": %zu,\n"
               "      \"audits\": %llu,\n"
               "      \"publications_tracked\": %llu\n"
               "    }\n",
               static_cast<unsigned long long>(fig6.summary.deliveries), fig6.summary.meanMs,
               fig6.summary.p99Ms, static_cast<unsigned long long>(fig6.summary.linkPackets),
               fig6.auditOk ? "true" : "false", fig6.auditViolations,
               static_cast<unsigned long long>(fig6.audits),
               static_cast<unsigned long long>(fig6.publicationsTracked));
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("(JSON written to %s; peak RSS %ld KB)\n", outPath.c_str(), rssKb);

  return fig6.auditOk ? 0 : 1;
}
