#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "copss/router.hpp"
#include "copss/served_faces.hpp"
#include "game/map.hpp"
#include "game/objects.hpp"
#include "gcopss/experiment.hpp"
#include "ndn/packets.hpp"
#include "net/network.hpp"
#include "trace/trace.hpp"

namespace gcopss::test {
namespace {

using copss::ServedFaces;

// The served-face record as routers kept it before the bit rows: a vector of
// faces per seq, scanned with std::find, in a window of the last `window`
// distinct seqs (ring + map, evicting in insertion order). Same rules:
// the arrival face counts as served, and only a retransmission re-floods a
// served face, never the local one.
class VectorServedFaces {
 public:
  explicit VectorServedFaces(std::size_t window) : ring_(window, 0) {}

  std::size_t serve(std::uint64_t seq, NodeId arrival, bool retx, std::vector<NodeId>& faces) {
    std::vector<NodeId>& sent = record(seq);
    if (arrival != kInvalidNode &&
        std::find(sent.begin(), sent.end(), arrival) == sent.end()) {
      sent.push_back(arrival);
    }
    std::vector<NodeId> kept;
    std::size_t dropped = 0;
    for (NodeId face : faces) {
      const bool served = std::find(sent.begin(), sent.end(), face) != sent.end();
      if (served && (!retx || face == ndn::kLocalFace)) {
        ++dropped;
        continue;
      }
      if (!served) sent.push_back(face);
      kept.push_back(face);
    }
    faces = std::move(kept);
    return dropped;
  }

 private:
  std::vector<NodeId>& record(std::uint64_t seq) {
    const auto it = sent_.find(seq);
    if (it != sent_.end()) return it->second;
    if (ring_[pos_] != 0) sent_.erase(ring_[pos_]);
    ring_[pos_] = seq;
    pos_ = (pos_ + 1) % ring_.size();
    return sent_[seq];
  }

  std::vector<std::uint64_t> ring_;
  std::size_t pos_ = 0;
  std::unordered_map<std::uint64_t, std::vector<NodeId>> sent_;
};

// Neighbour ids spread out like a real topology's (not 0..n-1).
std::vector<NodeId> neighbourIds(std::size_t n) {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(static_cast<NodeId>(5 + 3 * i));
  return out;
}

// Randomized equivalence: seq churn with eviction, arrivals from any face
// (and from nowhere), retransmissions, the local face, duplicate and
// arrival faces inside the match list, and more than 64 faces in total.
// `known` neighbours are indexed up front; the rest join on first sight,
// widening every row mid-run.
void expectMatchesVectorModel(std::size_t window, std::size_t known, std::uint64_t seed) {
  const std::vector<NodeId> neighbours = neighbourIds(150);
  std::vector<NodeId> universe = neighbours;
  universe.push_back(ndn::kLocalFace);
  ServedFaces served(window, std::vector<NodeId>(neighbours.begin(),
                                                 neighbours.begin() + static_cast<long>(known)));
  VectorServedFaces ref(window);
  Rng rng(seed);
  std::uint64_t droppedTotal = 0;
  for (int step = 0; step < 20000; ++step) {
    const auto seq = 1 + static_cast<std::uint64_t>(
                             rng.uniformInt(0, static_cast<std::int64_t>(window) * 2));
    const NodeId arrival =
        rng.bernoulli(0.2) ? kInvalidNode
                           : universe[static_cast<std::size_t>(rng.uniformInt(
                                 0, static_cast<std::int64_t>(universe.size()) - 1))];
    const bool retx = rng.bernoulli(0.2);
    std::vector<NodeId> faces;
    const auto n = rng.uniformInt(0, 24);
    for (std::int64_t i = 0; i < n; ++i) {
      faces.push_back(universe[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(universe.size()) - 1))]);
    }
    std::vector<NodeId> refFaces = faces;
    const std::size_t dropped = served.serve(seq, arrival, retx, faces);
    ASSERT_EQ(dropped, ref.serve(seq, arrival, retx, refFaces))
        << "window " << window << " step " << step;
    ASSERT_EQ(faces, refFaces) << "window " << window << " step " << step;
    droppedTotal += dropped;
  }
  EXPECT_GT(served.indexedFaces(), 128u);  // three words per row by the end
  EXPECT_GT(droppedTotal, 0u);
}

TEST(ServedFaces, MatchesVectorModelWithAllFacesKnownUpFront) {
  expectMatchesVectorModel(8, 150, 11);
  expectMatchesVectorModel(256, 150, 12);
}

TEST(ServedFaces, MatchesVectorModelWhileFacesJoinLate) {
  expectMatchesVectorModel(8, 0, 21);
  expectMatchesVectorModel(256, 20, 22);
  expectMatchesVectorModel(1024, 60, 23);
}

TEST(ServedFaces, ArrivalFaceCountsAsServed) {
  ServedFaces served(64, neighbourIds(4));
  std::vector<NodeId> faces{5, 8, 11};
  EXPECT_EQ(served.serve(1, 8, false, faces), 1u);
  EXPECT_EQ(faces, (std::vector<NodeId>{5, 11}));
  // A second arrival of the same seq from a fresh face: that face is
  // served by the arrival itself, the rest by the first pass.
  faces = {5, 8, 11, 14};
  EXPECT_EQ(served.serve(1, 14, false, faces), 4u);
  EXPECT_TRUE(faces.empty());
}

TEST(ServedFaces, RetransmissionRefloodsEveryFaceButLocal) {
  ServedFaces served(64, neighbourIds(4));
  std::vector<NodeId> faces{5, ndn::kLocalFace, 8};
  EXPECT_EQ(served.serve(7, kInvalidNode, false, faces), 0u);
  faces = {5, ndn::kLocalFace, 8};
  EXPECT_EQ(served.serve(7, kInvalidNode, true, faces), 1u);
  EXPECT_EQ(faces, (std::vector<NodeId>{5, 8}));
  // Without the retx flag the same arrival is fully suppressed.
  faces = {5, ndn::kLocalFace, 8};
  EXPECT_EQ(served.serve(7, kInvalidNode, false, faces), 3u);
}

TEST(ServedFaces, FacesPastSixtyFourDoNotAlias) {
  // Bits 0, 64 and 128 share a bit position in consecutive words.
  const std::vector<NodeId> neighbours = neighbourIds(140);
  ServedFaces served(64, neighbours);
  ASSERT_EQ(served.indexedFaces(), 141u);
  const NodeId bit64 = neighbours[63];
  const NodeId bit128 = neighbours[127];
  std::vector<NodeId> faces{bit64};
  EXPECT_EQ(served.serve(3, kInvalidNode, false, faces), 0u);
  faces = {ndn::kLocalFace, bit128, bit64};
  EXPECT_EQ(served.serve(3, kInvalidNode, false, faces), 1u);
  EXPECT_EQ(faces, (std::vector<NodeId>{ndn::kLocalFace, bit128}));
}

TEST(ServedFaces, EvictedSeqIsServedAgain) {
  ServedFaces served(2, neighbourIds(2));
  for (std::uint64_t seq : {1, 2, 3}) {
    std::vector<NodeId> faces{5};
    EXPECT_EQ(served.serve(seq, kInvalidNode, false, faces), 0u);
  }
  std::vector<NodeId> faces{5};
  EXPECT_EQ(served.serve(1, kInvalidNode, false, faces), 0u);  // 1 left the window
  faces = {5};
  EXPECT_EQ(served.serve(3, kInvalidNode, false, faces), 1u);
}

// End to end: on the six-router benchmark topology, 450 players put about
// 75 hosts behind every router, so each edge router's record rows span two
// words. Two RPs split the map, and every player must receive exactly the
// updates it sees, once.
TEST(ServedFaces, EdgeRoutersWithMoreThan64HostFacesDeliverExactly) {
  game::GameMap map{std::vector<std::size_t>{2, 2}};
  game::ObjectDatabase db{map, {6, 12, 24}};
  trace::CsTraceConfig tcfg;
  tcfg.players = 450;
  tcfg.playersPerAreaMin = 60;  // 7 areas
  tcfg.playersPerAreaMax = 70;
  tcfg.totalUpdates = 600;
  tcfg.meanInterArrival = ms(2);
  tcfg.seed = 5;
  const trace::Trace trace = trace::generateCsTrace(map, db, tcfg);

  std::map<Name, std::uint64_t> playersAt;
  for (const game::Position& p : trace.playerPositions) ++playersAt[p.area];
  std::uint64_t expected = 0;
  for (const trace::TraceRecord& r : trace.records) {
    for (const auto& [area, count] : playersAt) {
      if (map.sees(game::Position{area}, r.cd)) expected += count;
    }
    if (map.sees(trace.playerPositions[r.playerId], r.cd)) --expected;  // no echo
  }

  gc::GCopssRunConfig cfg;
  cfg.topo = gc::TopoKind::Bench6;
  cfg.params = SimParams::microbench();
  cfg.numRps = 2;
  std::size_t widestRouter = 0;
  cfg.onWorldReady = [&](const gc::GCopssRunConfig::WorldView& w) {
    for (const copss::CopssRouter* r : w.routers) {
      widestRouter = std::max(widestRouter, w.net.topology().neighbors(r->id()).size());
    }
  };
  const gc::RunSummary res = gc::runGCopssTrace(map, trace, cfg);
  EXPECT_GT(widestRouter, 64u);
  EXPECT_EQ(res.deliveries, expected);
}

}  // namespace
}  // namespace gcopss::test
