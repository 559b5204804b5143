#include "tracer.hpp"

#include <algorithm>
#include <chrono>

#include "common/name_table.hpp"
#include "common/seq_window.hpp"
#include "copss/packets.hpp"
#include "copss/router.hpp"
#include "gcopss/client.hpp"
#include "ndn/packets.hpp"
#include "net/network.hpp"

namespace perfbench {

using namespace gcopss;

namespace {

// The harness numbers trace publications 1..N; broker snapshots live above.
constexpr std::uint64_t kSnapshotSeqBase = 1ULL << 40;

// The publication a data-path packet carries: a Multicast itself, or the
// Multicast encapsulated in an Interest on its way to the RP.
const copss::MulticastPacket* publicationOf(const PacketPtr& pkt) {
  const Packet* p = pkt.get();
  if (p->kind == Packet::Kind::Interest) {
    p = static_cast<const ndn::InterestPacket*>(p)->encapsulated.get();
    if (p == nullptr) return nullptr;
  }
  if (p->kind != Packet::Kind::Multicast) return nullptr;
  const auto* m = static_cast<const copss::MulticastPacket*>(p);
  return m->seq < kSnapshotSeqBase ? m : nullptr;
}

bool isMigrationControl(Packet::Kind k) {
  switch (k) {
    case Packet::Kind::FibAdd:
    case Packet::Kind::FibRemove:
    case Packet::Kind::RpHandoff:
    case Packet::Kind::StJoin:
    case Packet::Kind::StConfirm:
    case Packet::Kind::StLeave:
      return true;
    default:
      return false;
  }
}

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

const char* legName(Leg l) {
  switch (l) {
    case Leg::ToRp: return "to_rp";
    case Leg::Rp: return "rp";
    case Leg::Fanout: return "fanout";
  }
  return "?";
}

const char* componentName(Component c) {
  switch (c) {
    case Component::Propagation: return "propagation";
    case Component::Serialization: return "serialization";
    case Component::FaceQueue: return "face_queue";
    case Component::CpuWait: return "cpu_wait";
    case Component::Service: return "service";
  }
  return "?";
}

std::size_t HopTracer::CopyKeyHash::operator()(const CopyKey& k) const {
  const auto p = reinterpret_cast<std::uintptr_t>(k.pkt);
  return std::hash<std::uint64_t>{}(p ^ (static_cast<std::uint64_t>(k.from) << 20) ^
                                    (static_cast<std::uint64_t>(k.to) << 40));
}

HopTracer::HopTracer(const gc::GCopssRunConfig::WorldView& world, const game::GameMap& map,
                     const trace::Trace& trace, std::uint64_t sampleEvery)
    : net_(world.net), map_(map), trace_(trace), sampleEvery_(sampleEvery) {
  const std::size_t nodes = net_.topology().nodeCount();
  routerAt_.assign(nodes, nullptr);
  clientAt_.assign(nodes, -1);
  for (copss::CopssRouter* r : world.routers) routerAt_[static_cast<std::size_t>(r->id())] = r;
  for (std::size_t p = 0; p < world.clients.size(); ++p) {
    clientAt_[static_cast<std::size_t>(world.clients[p]->id())] = static_cast<std::int32_t>(p);
  }
}

std::int32_t HopTracer::takePending(
    std::unordered_map<CopyKey, std::vector<std::int32_t>, CopyKeyHash>& m, const CopyKey& k) {
  const auto it = m.find(k);
  if (it == m.end()) return -1;
  const std::int32_t idx = it->second.front();
  it->second.erase(it->second.begin());
  if (it->second.empty()) m.erase(it);
  return idx;
}

void HopTracer::onWireSend(NodeId from, NodeId to, const PacketPtr& pkt, SimTime now) {
  if (isMigrationControl(pkt->kind)) ++migrationControl_;
  const copss::MulticastPacket* pub = publicationOf(pkt);
  if (pub == nullptr || pub->seq % sampleEvery_ != 0) return;
  Hop h;
  h.from = from;
  h.to = to;
  h.seq = pub->seq;
  h.publishedAt = pub->publishedAt;
  h.tSend = now;
  h.toRp = pkt->kind == Packet::Kind::Interest || pub->publisher == from;
  if (ctxNode_ == from && ctxTime_ == now && ctxHop_ >= 0 &&
      hops_[static_cast<std::size_t>(ctxHop_)].seq == h.seq) {
    h.parent = ctxHop_;
  } else if (pkt->kind == Packet::Kind::Multicast && pub->publisher == from) {
    h.root = true;
  } else {
    ++unlinkedSends_;
  }
  const Topology::Link& link = net_.topology().linkBetween(from, to);
  h.propagation = link.delay;
  if (net_.linkQueuesEnabled()) {
    // The observer runs before admission: the backlog now is the wait.
    const FaceQueue& q = net_.faceQueue(from, to);
    h.faceQueue = q.backlog(now);
    h.serialization = q.txTime(pkt->size);
  } else {
    h.serialization = static_cast<SimTime>(static_cast<double>(pkt->size) * 8.0 /
                                           link.bandwidthBps * kSecond);
  }
  const auto idx = static_cast<std::int32_t>(hops_.size());
  hops_.push_back(h);
  onWire_[CopyKey{pkt.get(), from, to}].push_back(idx);
}

void HopTracer::onCpuEnqueue(NodeId at, NodeId fromFace, const PacketPtr& pkt, SimTime now) {
  if (fromFace == kInvalidNode) return;
  const copss::MulticastPacket* pub = publicationOf(pkt);
  if (pub == nullptr || pub->seq % sampleEvery_ != 0) return;
  const std::int32_t idx = takePending(onWire_, CopyKey{pkt.get(), fromFace, at});
  if (idx < 0) return;
  Hop& h = hops_[static_cast<std::size_t>(idx)];
  h.enqueued = true;
  h.tEnq = now;
  // The observer runs before the CPU reservation: the backlog now is the
  // wait, and serviceTime() sees the state the reservation will see.
  const Node& n = net_.node(at);
  h.cpuWait = n.cpuBacklog();
  h.service = n.serviceTime(pkt);
  inCpu_[CopyKey{pkt.get(), fromFace, at}].push_back(idx);
}

void HopTracer::onHandle(NodeId at, NodeId fromFace, const PacketPtr& pkt, SimTime now) {
  ctxNode_ = at;
  ctxTime_ = now;
  ctxHop_ = -1;
  const copss::MulticastPacket* pub = publicationOf(pkt);
  if (pub == nullptr) return;
  const bool sampled = pub->seq % sampleEvery_ == 0;
  const auto node = static_cast<std::size_t>(at);
  const std::int32_t client = clientAt_[node];
  const bool clientCopy =
      client >= 0 && pkt->kind == Packet::Kind::Multicast && pub->publisher != at;
  if (routerAt_[node] != nullptr) {
    recordRouterInputs(*routerAt_[node], fromFace, pkt, sampled);
  } else if (clientCopy) {
    seqInputs_.push_back(SeqInput{static_cast<std::uint32_t>(client), pub->seq});
  }
  if (!sampled || fromFace == kInvalidNode) return;
  const std::int32_t idx = takePending(inCpu_, CopyKey{pkt.get(), fromFace, at});
  if (idx < 0) return;
  Hop& h = hops_[static_cast<std::size_t>(idx)];
  h.handled = true;
  h.tHandle = now;
  ctxHop_ = idx;
  if (clientCopy) {
    deliveryHop_.try_emplace((static_cast<std::uint64_t>(client) << 40) | pub->seq, idx);
  }
}

void HopTracer::onDrop(NodeId at, const PacketPtr& pkt, DropReason reason, SimTime now) {
  (void)now;
  ++drops_[static_cast<std::size_t>(reason)];
  const copss::MulticastPacket* pub = publicationOf(pkt);
  if (pub == nullptr || pub->seq % sampleEvery_ != 0) return;
  // A dropped copy never arrives: forget its pending entry so a later packet
  // reusing the address is not matched to it.
  auto forget = [&](auto& pending) {
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      if (it->first.pkt == pkt.get() && it->first.to == at) {
        it->second.pop_back();
        if (it->second.empty()) pending.erase(it);
        return;
      }
    }
  };
  if (reason == DropReason::QueueDrop || reason == DropReason::WireFault) {
    forget(onWire_);
  } else {
    forget(inCpu_);
  }
}

void HopTracer::recordRouterInputs(copss::CopssRouter& r, NodeId fromFace, const PacketPtr& pkt,
                                   bool sampled) {
  if (pkt->kind == Packet::Kind::Multicast) {
    const auto& m = packet_cast<copss::MulticastPacket>(pkt);
    if (fromFace != kInvalidNode && !r.isHostFace(fromFace)) {
      // Down the tree: one ST match per hop.
      if (sampled) stInputs_.push_back(StMatchInput{&r, pkt, fromFace});
      return;
    }
    // First hop: encapsulate and route on the CD-FIB; decapsulate here if
    // this router is the RP.
    ++fibLookups_;
    if (!sampled) return;
    const NameId id = NameTable::instance().find(m.cds.front());
    lpmInputs_.push_back(LpmInput{&r, id});
    if (r.isRpFor(id)) stInputs_.push_back(StMatchInput{&r, pkt, kInvalidNode});
    return;
  }
  const auto& in = packet_cast<ndn::InterestPacket>(pkt);
  ++fibLookups_;
  if (!sampled) return;
  lpmInputs_.push_back(LpmInput{&r, in.nameId});
  if (r.isRpFor(in.nameId)) stInputs_.push_back(StMatchInput{&r, in.encapsulated, kInvalidNode});
}

HopTracer::Decomposition HopTracer::decompose(SpanLog& spans) const {
  Decomposition d;
  auto fail = [&d](std::string msg) {
    if (d.failures.size() < 20) d.failures.push_back(std::move(msg));
  };
  if (unlinkedSends_ > 0) {
    fail(std::to_string(unlinkedSends_) + " traced send(s) not made from a traced handler");
  }

  // One sim span for the wire and one for the CPU of every handled hop;
  // parents are always earlier in hops_, so one forward pass links them.
  std::vector<std::int64_t> cpuSpan(hops_.size(), -1);
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    const Hop& h = hops_[i];
    if (!h.handled) continue;
    const std::int64_t parent = h.parent >= 0 ? cpuSpan[static_cast<std::size_t>(h.parent)] : -1;
    const std::int64_t wire = spans.add(SpanLog::Span{
        h.toRp ? "net.wire.to_rp" : "net.wire.fanout", SpanLog::Clock::Sim, h.seq, parent,
        h.tSend, h.tEnq});
    cpuSpan[i] = spans.add(SpanLog::Span{
        routerAt_[static_cast<std::size_t>(h.to)] ? "node.cpu.router" : "node.cpu.host",
        SpanLog::Clock::Sim, h.seq, wire, h.tEnq, h.tHandle});
  }

  std::vector<std::pair<std::uint64_t, std::int32_t>> deliveries(deliveryHop_.begin(),
                                                                 deliveryHop_.end());
  std::sort(deliveries.begin(), deliveries.end());
  std::vector<const Hop*> chain;
  for (const auto& [key, idx] : deliveries) {
    const auto client = static_cast<std::size_t>(key >> 40);
    const std::uint64_t seq = key & ((1ULL << 40) - 1);
    const trace::TraceRecord& rec = trace_.records.at(static_cast<std::size_t>(seq - 1));
    // A copy the client filtered (Bloom false positive upstream) is not a
    // delivery; the client's dedup then swallows any later copy too.
    if (!map_.sees(trace_.playerPositions.at(client), rec.cd)) continue;
    const std::string who = "seq " + std::to_string(seq) + " to player " + std::to_string(client);

    chain.clear();
    for (std::int32_t cur = idx; cur >= 0;) {
      const Hop& h = hops_[static_cast<std::size_t>(cur)];
      chain.push_back(&h);
      if (h.root) break;
      cur = h.parent;
    }
    if (!chain.back()->root) {
      fail(who + ": hop chain does not reach the publish");
      continue;
    }
    std::array<std::array<SimTime, kComponents>, kLegs> mine{};
    SimTime total = 0;
    bool ok = true;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const Hop& h = *chain[i];
      const Hop* child = i > 0 ? chain[i - 1] : nullptr;
      if (!h.enqueued || !h.handled) {
        fail(who + ": hop " + std::to_string(h.from) + "->" + std::to_string(h.to) +
             " was not handled");
        ok = false;
        break;
      }
      if (h.tEnq - h.tSend != h.propagation + h.serialization + h.faceQueue ||
          h.tHandle - h.tEnq != h.cpuWait + h.service ||
          (child != nullptr && child->tSend != h.tHandle)) {
        fail(who + ": hop " + std::to_string(h.from) + "->" + std::to_string(h.to) +
             " timestamps disagree with its components");
        ok = false;
        break;
      }
      const Leg wireLeg = h.toRp ? Leg::ToRp : Leg::Fanout;
      const Leg cpuLeg = !h.toRp ? Leg::Fanout
                         : (child != nullptr && child->toRp) ? Leg::ToRp
                                                            : Leg::Rp;
      auto& w = mine[static_cast<std::size_t>(wireLeg)];
      auto& c = mine[static_cast<std::size_t>(cpuLeg)];
      w[static_cast<std::size_t>(Component::Propagation)] += h.propagation;
      w[static_cast<std::size_t>(Component::Serialization)] += h.serialization;
      w[static_cast<std::size_t>(Component::FaceQueue)] += h.faceQueue;
      c[static_cast<std::size_t>(Component::CpuWait)] += h.cpuWait;
      c[static_cast<std::size_t>(Component::Service)] += h.service;
      total += h.propagation + h.serialization + h.faceQueue + h.cpuWait + h.service;
    }
    if (!ok) continue;
    const Hop& root = *chain.back();
    const SimTime latency = chain.front()->tHandle - root.publishedAt;
    if (root.tSend != root.publishedAt || total != latency) {
      fail(who + ": components sum to " + std::to_string(total) + " ns, latency is " +
           std::to_string(latency) + " ns");
      continue;
    }
    ++d.deliveries;
    for (std::size_t l = 0; l < kLegs; ++l) {
      for (std::size_t c = 0; c < kComponents; ++c) d.sum[l][c] += mine[l][c];
    }
  }
  return d;
}

HopTracer::ReplayTimes HopTracer::replay(SpanLog& spans, std::int64_t parentSpan,
                                         double minSeconds) const {
  ReplayTimes out;
  std::uint64_t sink = 0;

  // Each layer's recorded inputs are replayed whole, repeatedly, until
  // `minSeconds` of calls have been timed.
  auto timeLayer = [&](const char* name, std::size_t inputs, auto&& once) {
    std::uint64_t calls = 0;
    double busy = 0.0;
    const std::int64_t span = spans.open(name, parentSpan);
    while (inputs > 0 && busy < minSeconds) {
      const auto t0 = std::chrono::steady_clock::now();
      once();
      busy += secondsSince(t0);
      calls += inputs;
    }
    spans.close(span);
    return std::pair<std::uint64_t, double>{calls,
                                            calls ? busy * 1e9 / static_cast<double>(calls) : 0};
  };

  std::vector<NodeId> faces;
  std::tie(out.stCalls, out.stNs) = timeLayer("replay.st.matchFacesHashedInto", stInputs_.size(),
                                              [&] {
    for (const StMatchInput& in : stInputs_) {
      const auto& m = packet_cast<copss::MulticastPacket>(in.multicast);
      in.router->st().matchFacesHashedInto(m.cds, m.prefixHashes, m.matchKey, in.excludeFace,
                                           faces);
      sink += faces.size();
    }
  });
  std::tie(out.lpmCalls, out.lpmNs) = timeLayer("replay.ndn.lpmFaces", lpmInputs_.size(), [&] {
    for (const LpmInput& in : lpmInputs_) {
      const auto* f = in.router->cdFib().lpmFaces(in.nameId);
      sink += f ? f->size() : 0;
    }
  });
  // Fresh per-client windows for every pass, sized like the client's own.
  std::size_t clients = 0;
  for (const SeqInput& in : seqInputs_) clients = std::max<std::size_t>(clients, in.client + 1);
  std::vector<SeqWindow> windows;
  std::tie(out.seqCalls, out.seqNs) = timeLayer("replay.seq.checkAndInsert", seqInputs_.size(),
                                                [&] {
    windows.assign(clients, SeqWindow(4096));
    for (const SeqInput& in : seqInputs_) sink += windows[in.client].checkAndInsert(in.seq);
  });
  // Keep the replayed work observable so it cannot be optimized away.
  volatile std::uint64_t keep = sink;
  (void)keep;
  return out;
}

}  // namespace perfbench
