// Component microbenchmarks (google-benchmark): the per-packet operations
// whose costs parameterize the simulator — ST Bloom matching, FIB LPM, PIT
// insert/consume, name parsing/hashing, and raw event-queue throughput.

#include <benchmark/benchmark.h>

#include "common/bloom.hpp"
#include "common/name.hpp"
#include "copss/packets.hpp"
#include "copss/st.hpp"
#include "des/simulator.hpp"
#include "game/map.hpp"
#include "ndn/fib.hpp"
#include "ndn/pit.hpp"

using namespace gcopss;

namespace {

std::vector<Name> gameLeafCds() {
  game::GameMap map({5, 5});
  return map.leafCds();
}

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Name::parse("/1/2/3/object/42"));
  }
}
BENCHMARK(BM_NameParse);

void BM_NameHash(benchmark::State& state) {
  const Name n = Name::parse("/1/2/3/object/42");
  for (auto _ : state) benchmark::DoNotOptimize(n.hash());
}
BENCHMARK(BM_NameHash);

void BM_BloomAddRemove(benchmark::State& state) {
  CountingBloomFilter bloom;
  const auto cds = gameLeafCds();
  std::size_t i = 0;
  for (auto _ : state) {
    bloom.add(cds[i % cds.size()]);
    bloom.remove(cds[i % cds.size()]);
    ++i;
  }
}
BENCHMARK(BM_BloomAddRemove);

void BM_BloomContainsHashed(benchmark::State& state) {
  CountingBloomFilter bloom;
  const auto cds = gameLeafCds();
  for (const auto& cd : cds) bloom.add(cd);
  const std::uint64_t h = cds.front().hash();
  for (auto _ : state) benchmark::DoNotOptimize(bloom.possiblyContains(h));
}
BENCHMARK(BM_BloomContainsHashed);

// ST match with the textual (per-hop rehash) control-plane query vs the
// hash-at-first-hop data-plane match the paper proposes — the optimisation's
// payoff, measured.
void BM_StMatchTextual(benchmark::State& state) {
  copss::SubscriptionTable st;
  const auto cds = gameLeafCds();
  for (int face = 0; face < static_cast<int>(state.range(0)); ++face) {
    for (const auto& cd : cds) st.subscribe(face, cd);
  }
  const Name pub = Name::parse("/1/2");
  for (auto _ : state) benchmark::DoNotOptimize(st.facesMatching(pub));
}
BENCHMARK(BM_StMatchTextual)->Arg(4)->Arg(16);

void BM_StMatchHashed(benchmark::State& state) {
  copss::SubscriptionTable st;
  const auto cds = gameLeafCds();
  for (int face = 0; face < static_cast<int>(state.range(0)); ++face) {
    for (const auto& cd : cds) st.subscribe(face, cd);
  }
  const copss::MulticastPacket pkt({Name::parse("/1/2")}, 100, 0, 1, 0);
  std::vector<NodeId> faces;
  for (auto _ : state) {
    st.matchFacesHashedInto(pkt.cds, pkt.prefixHashes, pkt.matchKey, kInvalidNode, faces);
    benchmark::DoNotOptimize(faces.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_StMatchHashed)->Arg(4)->Arg(16);

void BM_FibLpm(benchmark::State& state) {
  ndn::Fib fib;
  const auto cds = gameLeafCds();
  for (std::size_t i = 0; i < cds.size(); ++i) {
    fib.insert(cds[i], static_cast<NodeId>(i % 8));
  }
  const Name probe = Name::parse("/3/4");
  for (auto _ : state) benchmark::DoNotOptimize(fib.lpm(probe));
}
BENCHMARK(BM_FibLpm);

void BM_PitInsertConsume(benchmark::State& state) {
  ndn::Pit pit;
  const Name n = Name::parse("/player/17/u/12345");
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    pit.insert(n, 1, ++nonce, 0);
    benchmark::DoNotOptimize(pit.consume(n, 0));
  }
}
BENCHMARK(BM_PitInsertConsume);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int sink = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule(i, [&sink]() { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueThroughput);

}  // namespace

BENCHMARK_MAIN();
