#pragma once

// The traced pass's packet tap. Attached in onWorldReady, it stamps every
// hop of a deterministic sample of publications (seq % sampleEvery == 0),
// splits each delivery's simulated latency into propagation, serialization,
// face-queue wait, CPU-queue wait and service along three legs (to the RP,
// at the RP, down the fan-out tree), and records the ST match, CD-FIB and
// dedup inputs it sees so they can be replayed and timed on the drained
// tables. Serial engine only, like every PacketObserver.

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "gcopss/experiment.hpp"
#include "net/observer.hpp"
#include "spans.hpp"

namespace gcopss::copss {
class CopssRouter;
}

namespace perfbench {

enum class Leg : std::uint8_t { ToRp, Rp, Fanout };
enum class Component : std::uint8_t { Propagation, Serialization, FaceQueue, CpuWait, Service };
constexpr std::size_t kLegs = 3;
constexpr std::size_t kComponents = 5;
const char* legName(Leg l);
const char* componentName(Component c);

class HopTracer final : public gcopss::PacketObserver {
 public:
  HopTracer(const gcopss::gc::GCopssRunConfig::WorldView& world,
            const gcopss::game::GameMap& map, const gcopss::trace::Trace& trace,
            std::uint64_t sampleEvery);

  void onWireSend(gcopss::NodeId from, gcopss::NodeId to, const gcopss::PacketPtr& pkt,
                  gcopss::SimTime now) override;
  void onCpuEnqueue(gcopss::NodeId at, gcopss::NodeId fromFace, const gcopss::PacketPtr& pkt,
                    gcopss::SimTime now) override;
  void onHandle(gcopss::NodeId at, gcopss::NodeId fromFace, const gcopss::PacketPtr& pkt,
                gcopss::SimTime now) override;
  void onDrop(gcopss::NodeId at, const gcopss::PacketPtr& pkt, gcopss::DropReason reason,
              gcopss::SimTime now) override;

  struct Decomposition {
    std::uint64_t deliveries = 0;  // traced deliveries walked back to their publish
    // Sum over traced deliveries, per leg and component (sim time).
    std::array<std::array<gcopss::SimTime, kComponents>, kLegs> sum{};
    // Self-check: every hop's components match its timestamps, every chain
    // is linked back to its publish, and the components of each delivery
    // sum exactly to its latency. Empty when all of that holds.
    std::vector<std::string> failures;
  };
  // Walk every traced delivery back to its publication. Call once, after
  // the run drained; appends one sim-time span per traced hop to `spans`.
  Decomposition decompose(SpanLog& spans) const;

  struct ReplayTimes {
    std::uint64_t stCalls = 0;
    double stNs = 0.0;
    std::uint64_t lpmCalls = 0;
    double lpmNs = 0.0;
    std::uint64_t seqCalls = 0;
    double seqNs = 0.0;
  };
  // Replay the recorded ST matches, CD-FIB lookups and dedup seqs through
  // matchFacesHashedInto, lpmFaces and SeqWindow::checkAndInsert on the
  // drained tables, timing each layer; one host span per layer, under
  // `parentSpan`.
  ReplayTimes replay(SpanLog& spans, std::int64_t parentSpan, double minSeconds) const;

  // Whole-run counters (every packet, not just the sample).
  std::uint64_t fibLookups() const { return fibLookups_; }
  std::uint64_t migrationControlPackets() const { return migrationControl_; }
  const std::array<std::uint64_t, 5>& dropsByReason() const { return drops_; }

 private:
  // One packet copy's hop: the wire from `from` to `to`, then `to`'s CPU.
  struct Hop {
    std::int32_t parent = -1;  // the hop whose handler sent this copy
    bool root = false;         // sent by the publisher itself
    bool toRp = false;         // a publication still heading for its RP
    bool enqueued = false;
    bool handled = false;
    gcopss::NodeId from = gcopss::kInvalidNode;
    gcopss::NodeId to = gcopss::kInvalidNode;
    std::uint64_t seq = 0;
    gcopss::SimTime publishedAt = 0;
    gcopss::SimTime tSend = 0, tEnq = 0, tHandle = 0;
    gcopss::SimTime propagation = 0, serialization = 0, faceQueue = 0;
    gcopss::SimTime cpuWait = 0, service = 0;
  };
  struct CopyKey {
    const void* pkt;
    gcopss::NodeId from;
    gcopss::NodeId to;
    bool operator==(const CopyKey&) const = default;
  };
  struct CopyKeyHash {
    std::size_t operator()(const CopyKey& k) const;
  };
  struct StMatchInput {
    gcopss::copss::CopssRouter* router;
    gcopss::PacketPtr multicast;
    gcopss::NodeId excludeFace;
  };
  struct LpmInput {
    gcopss::copss::CopssRouter* router;
    std::uint32_t nameId;
  };
  struct SeqInput {
    std::uint32_t client;
    std::uint64_t seq;
  };

  std::int32_t takePending(std::unordered_map<CopyKey, std::vector<std::int32_t>, CopyKeyHash>& m,
                           const CopyKey& k);
  void recordRouterInputs(gcopss::copss::CopssRouter& r, gcopss::NodeId fromFace,
                          const gcopss::PacketPtr& pkt, bool sampled);

  gcopss::Network& net_;
  const gcopss::game::GameMap& map_;
  const gcopss::trace::Trace& trace_;
  std::uint64_t sampleEvery_;
  std::vector<gcopss::copss::CopssRouter*> routerAt_;  // NodeId -> router or null
  std::vector<std::int32_t> clientAt_;                 // NodeId -> player index or -1

  std::vector<Hop> hops_;
  std::unordered_map<CopyKey, std::vector<std::int32_t>, CopyKeyHash> onWire_;
  std::unordered_map<CopyKey, std::vector<std::int32_t>, CopyKeyHash> inCpu_;
  // Handler context: the hop whose handler is running, so sends made from
  // it can be linked to it.
  gcopss::NodeId ctxNode_ = gcopss::kInvalidNode;
  gcopss::SimTime ctxTime_ = -1;
  std::int32_t ctxHop_ = -1;
  std::uint64_t unlinkedSends_ = 0;
  // First handled hop per (client, seq): the delivery the client accepts.
  std::unordered_map<std::uint64_t, std::int32_t> deliveryHop_;

  std::vector<StMatchInput> stInputs_;
  std::vector<LpmInput> lpmInputs_;
  std::vector<SeqInput> seqInputs_;
  std::uint64_t fibLookups_ = 0;
  std::uint64_t migrationControl_ = 0;
  std::array<std::uint64_t, 5> drops_{};
};

}  // namespace perfbench
