#include "net/network.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "net/partition.hpp"

namespace gcopss {

Node::Node(NodeId id, Network& net)
    : id_(id), net_(&net), shardSim_(&net.sim()) {}

SimTime Node::cpuBacklog() const {
  const SimTime now = shardSim_->now();
  return cpuFreeAt_ > now ? cpuFreeAt_ - now : 0;
}

SimTime Node::faceQueueBacklog() const {
  return net_->maxFaceBacklog(id_, shardSim_->now());
}

void Node::send(NodeId toFace, PacketPtr pkt) { net_->transmit(id_, toFace, std::move(pkt)); }

void Node::sendAfter(SimTime delay, NodeId toFace, PacketPtr pkt) {
  // Scheduled on this node's own lane: the timer stays shard-local and the
  // transmit it fires takes the normal cross-shard path.
  shardSim_->schedule(delay, [this, toFace, p = std::move(pkt)]() mutable {
    net_->transmit(id_, toFace, std::move(p));
  });
}

void Node::extendCpuBusy(SimTime extra) {
  const SimTime now = shardSim_->now();
  cpuFreeAt_ = (cpuFreeAt_ > now ? cpuFreeAt_ : now) + extra;
}

void Node::deliverLocal(PacketPtr pkt) {
  net_->enqueueCpu(id_, kInvalidNode, std::move(pkt));
}

Simulator& Node::sim() { return *shardSim_; }
const Simulator& Node::sim() const { return *shardSim_; }
const SimParams& Node::params() const { return net_->params_; }

Network::Network(Simulator& sim, Topology& topo, SimParams params)
    : sim_(sim), topo_(topo), params_(params) {}

void Network::attach(std::unique_ptr<Node> node) {
  const auto idx = static_cast<std::size_t>(node->id());
  assert(idx < topo_.nodeCount() && "node id must come from the topology");
  if (nodes_.size() <= idx) nodes_.resize(idx + 1);
  assert(!nodes_[idx] && "node id already attached");
  if (par_) {
    if (idx >= shardOf_.size()) {
      throw std::logic_error("Network::attach: node added to the topology after enableParallel");
    }
    node->shardSim_ = &par_->shard(shardOf_[idx]);
  }
  nodes_[idx] = std::move(node);
}

Node& Network::node(NodeId id) {
  const auto idx = static_cast<std::size_t>(id);
  if (idx >= nodes_.size() || !nodes_[idx]) throw std::out_of_range("no node attached");
  return *nodes_[idx];
}

bool Network::hasNode(NodeId id) const {
  const auto idx = static_cast<std::size_t>(id);
  return idx < nodes_.size() && nodes_[idx] != nullptr;
}

void Network::meterTx(Bytes size) {
  if (par_) {
    const std::size_t sh = ParallelSimulator::currentShard();
    if (sh != ParallelSimulator::kNoShard) {
      shardMeters_[sh].bytes += size;
      ++shardMeters_[sh].pkts;
      return;
    }
  }
  totalLinkBytes_ += size;
  ++totalLinkPackets_;
}

void Network::meterDrop() {
  if (par_) {
    const std::size_t sh = ParallelSimulator::currentShard();
    if (sh != ParallelSimulator::kNoShard) {
      ++shardMeters_[sh].drops;
      return;
    }
  }
  ++totalDrops_;
}

void Network::meterQueueDrop() {
  // A queue refusal is a drop (totalDrops) with its own reason counter.
  if (par_) {
    const std::size_t sh = ParallelSimulator::currentShard();
    if (sh != ParallelSimulator::kNoShard) {
      ++shardMeters_[sh].drops;
      ++shardMeters_[sh].queueDrops;
      return;
    }
  }
  ++totalDrops_;
  ++totalQueueDrops_;
}

void Network::transmit(NodeId from, NodeId to, PacketPtr pkt) {
  if (!faceQueues_.empty()) {
    transmitQueued(from, to, std::move(pkt));
    return;
  }
  const Topology::Link& link = topo_.linkBetween(from, to);
  meterTx(pkt->size);
  // `now` on the sender's lane: identical to sim_.now() when serial, and in
  // a parallel round the executing shard's clock (during a global phase all
  // lanes agree — ParallelSimulator lines them up first).
  Node& sender = node(from);
  const SimTime now = sender.shardSim_->now();
  if (observer_) observer_->onWireSend(from, to, pkt, now);
  const auto txTime = static_cast<SimTime>(
      static_cast<double>(pkt->size) * 8.0 / link.bandwidthBps * kSecond);
  SimTime arrival = link.delay + txTime;
  if (fault_) {
    const auto verdict = fault_->onTransmit(from, to, now);
    if (verdict.drop) {
      meterDrop();
      if (observer_) observer_->onDrop(to, pkt, DropReason::WireFault, now);
      return;  // lost on the wire (random loss or down window)
    }
    arrival += verdict.extraDelay;  // jitter / reorder hold
  }
  if (par_) {
    // Every delivery carries a key that ignores the shard mapping; the
    // destination shard orders it by that key whether it arrives directly
    // (same shard) or through the round merge, so per-node event order is
    // identical at any thread count. (Capture fits InlineHandler's inline
    // storage: 24 bytes.)
    const ParallelSimulator::RemoteKey key{
        now, static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)),
        sender.sendSeq_++};
    par_->post(shardOf_[static_cast<std::size_t>(to)], now + arrival, key,
               [this, to, from, p = std::move(pkt)]() mutable {
                 enqueueCpu(to, from, std::move(p));
               });
    return;
  }
  sim_.schedule(arrival, [this, to, from, p = std::move(pkt)]() mutable {
    enqueueCpu(to, from, std::move(p));
  });
}

void Network::transmitQueued(NodeId from, NodeId to, PacketPtr pkt) {
  const std::size_t li = topo_.linkIndexBetween(from, to);
  assert(2 * li + 1 < faceQueues_.size() &&
         "link added after enableLinkQueues — call it once the topology is final");
  const Topology::Link& link = topo_.links()[li];
  meterTx(pkt->size);
  Node& sender = node(from);
  const SimTime now = sender.shardSim_->now();
  if (observer_) observer_->onWireSend(from, to, pkt, now);
  // Fault verdicts keep their one-draw-per-transmit order (the RNG-lane
  // streams stay aligned with the unqueued path); loss is modelled at the
  // egress port, before the packet takes queue space.
  SimTime extraDelay = 0;
  if (fault_) {
    const auto verdict = fault_->onTransmit(from, to, now);
    if (verdict.drop) {
      meterDrop();
      if (observer_) observer_->onDrop(to, pkt, DropReason::WireFault, now);
      return;
    }
    extraDelay = verdict.extraDelay;
  }
  FaceQueue& q = faceQueues_[2 * li + (from == link.a ? 0 : 1)];
  const auto adm = q.admit(now, pkt->size);
  if (!adm.admitted) {
    meterQueueDrop();
    if (observer_) observer_->onDrop(to, pkt, DropReason::QueueDrop, now);
    return;
  }
  // Serialization completion on the sender's own lane: closes the occupancy
  // window (the queue never crosses a shard boundary).
  sender.shardSim_->scheduleAt(adm.txDone, [&q, sz = pkt->size]() { q.depart(sz); });
  // Receiver sees the packet one propagation delay after the last bit
  // leaves. txDone >= now, so cross-shard arrivals still respect the
  // cut-link-delay lookahead the parallel engine is built on.
  const SimTime arrival = (adm.txDone - now) + link.delay + extraDelay;
  if (par_) {
    const ParallelSimulator::RemoteKey key{
        now, static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)),
        sender.sendSeq_++};
    par_->post(shardOf_[static_cast<std::size_t>(to)], now + arrival, key,
               [this, to, from, p = std::move(pkt)]() mutable {
                 enqueueCpu(to, from, std::move(p));
               });
    return;
  }
  sim_.schedule(arrival, [this, to, from, p = std::move(pkt)]() mutable {
    enqueueCpu(to, from, std::move(p));
  });
}

void Network::enableLinkQueues(const LinkQueueConfig& cfg) {
  assert(cfg.enabled && "pass an enabled LinkQueueConfig (or never call)");
  queueCfg_ = cfg;
  faceQueues_.clear();
  faceQueues_.reserve(topo_.links().size() * 2);
  for (const Topology::Link& l : topo_.links()) {
    faceQueues_.emplace_back(l.a, l.b, l.bandwidthBps,
                             makeQueueDiscipline(cfg, l.a, l.b));
    faceQueues_.emplace_back(l.b, l.a, l.bandwidthBps,
                             makeQueueDiscipline(cfg, l.b, l.a));
  }
}

FaceQueue& Network::faceQueueRef(NodeId from, NodeId to) {
  const std::size_t li = topo_.linkIndexBetween(from, to);
  const Topology::Link& link = topo_.links()[li];
  return faceQueues_.at(2 * li + (from == link.a ? 0 : 1));
}

const FaceQueue& Network::faceQueue(NodeId from, NodeId to) const {
  return const_cast<Network*>(this)->faceQueueRef(from, to);
}

SimTime Network::maxFaceBacklog(NodeId id, SimTime now) const {
  if (faceQueues_.empty()) return 0;
  SimTime worst = 0;
  for (const auto& [nb, li] : topo_.adjacentLinks(id)) {
    const Topology::Link& link = topo_.links()[li];
    const FaceQueue& q = faceQueues_[2 * li + (id == link.a ? 0 : 1)];
    const SimTime b = q.backlog(now);
    if (b > worst) worst = b;
  }
  return worst;
}

QueueAggregate Network::queueAggregate() const {
  QueueAggregate agg;
  for (const FaceQueue& q : faceQueues_) {
    const FaceQueueStats& s = q.stats();
    agg.enqueued += s.enqueued;
    agg.departed += s.departed;
    agg.dropped += s.dropped;
    if (s.peakBytesQueued > agg.peakBytesQueued) agg.peakBytesQueued = s.peakBytesQueued;
    if (s.peakPacketsQueued > agg.peakPacketsQueued) {
      agg.peakPacketsQueued = s.peakPacketsQueued;
    }
    if (s.maxSojourn > agg.maxSojourn) agg.maxSojourn = s.maxSojourn;
    agg.sojournSum += s.sojournSum;
  }
  return agg;
}

void Network::enableParallel(ParallelSimulator& psim) {
  if (&psim.globalLane() != &sim_) {
    throw std::logic_error(
        "Network::enableParallel: the engine's global lane must be this network's Simulator");
  }
  if (observer_) {
    throw std::logic_error(
        "Network::enableParallel: packet observers are serial-only; clear the observer first");
  }
  requireIndependentFaultStreams(fault_.get());
  if (topo_.nodeCount() > ParallelSimulator::kMaxKeySrc + 1) {
    throw std::length_error("Network::enableParallel: too many nodes for the post key");
  }
  ShardPartition part = partitionShards(topo_, psim.workerCount());
  if (psim.lookahead() != ParallelSimulator::kUnbounded && psim.lookahead() > part.lookahead) {
    throw std::logic_error("Network::enableParallel: the engine's lookahead (" +
                           std::to_string(psim.lookahead()) +
                           ") exceeds the minimum cut-link delay (" +
                           std::to_string(part.lookahead) + ")");
  }
  if (psim.lookahead() == ParallelSimulator::kUnbounded &&
      part.lookahead != ParallelSimulator::kUnbounded) {
    psim.setLookahead(part.lookahead);
  }
  par_ = &psim;
  shardOf_ = std::move(part.shardOf);
  shardMeters_.assign(psim.workerCount(), ShardMeter{});
  for (auto& n : nodes_) {
    if (n) n->shardSim_ = &psim.shard(shardOf_[static_cast<std::size_t>(n->id())]);
  }
}

void Network::applyFaultPlan(const FaultPlan& plan) {
  auto injector = std::make_unique<FaultInjector>(plan);
  if (par_) requireIndependentFaultStreams(injector.get());
  fault_ = std::move(injector);
  if (plan.independentStreams) {
    // Build every directed link's RNG lane up front: at run time a lane is
    // touched only by the shard owning the sending endpoint, and the lane
    // map itself is never mutated again.
    std::vector<std::pair<NodeId, NodeId>> directed;
    directed.reserve(topo_.links().size() * 2);
    for (const Topology::Link& l : topo_.links()) {
      directed.emplace_back(l.a, l.b);
      directed.emplace_back(l.b, l.a);
    }
    fault_->prepareLanes(directed);
  }
  for (const NodeFaultSpec& nf : fault_->plan().nodes) {
    sim_.scheduleAt(nf.crashAt, [this, id = nf.node]() {
      setNodeFailed(id, true);
      ++fault_->stats().crashes;
      if (hasNode(id)) node(id).onCrash();
    });
    if (nf.restartAt >= 0) {
      sim_.scheduleAt(nf.restartAt, [this, id = nf.node]() {
        setNodeFailed(id, false);
        ++fault_->stats().restarts;
        if (hasNode(id)) node(id).onRestart();
      });
    }
  }
}

void Network::requireIndependentFaultStreams(const FaultInjector* fault) {
  if (fault && !fault->plan().links.empty() && !fault->plan().independentStreams) {
    throw std::logic_error(
        "parallel fault plans need FaultPlan::withIndependentStreams(): a shared RNG stream "
        "would be drawn in shard-timing order");
  }
}

void Network::setObserver(PacketObserver* obs) {
  if (obs && par_) throw std::logic_error("Network::setObserver: packet observers are serial-only");
  observer_ = obs;
}

void Network::setNodeFailed(NodeId id, bool failed) {
  if (failed) {
    failed_.insert(id);
  } else {
    failed_.erase(id);
  }
}

void Network::enqueueCpu(NodeId at, NodeId fromFace, PacketPtr pkt) {
  // Runs on `at`'s own lane in parallel mode (the transmit merge routed it
  // there), so the node's CPU state needs no synchronization. failed_ is
  // written only from sequential phases, so the read below is safe too.
  Node& n = node(at);
  Simulator& lsim = *n.shardSim_;
  if (observer_) observer_->onCpuEnqueue(at, fromFace, pkt, lsim.now());
  if (!failed_.empty() && failed_.count(at)) {
    meterDrop();
    if (observer_) observer_->onDrop(at, pkt, DropReason::NodeFailed, lsim.now());
    return;  // crashed node: blackhole
  }
  const SimTime now = lsim.now();
  if (params_.dropBacklog > 0 && n.cpuBacklog() > params_.dropBacklog) {
    ++n.drops_;
    meterDrop();
    if (observer_) observer_->onDrop(at, pkt, DropReason::BufferFull, lsim.now());
    return;  // finite buffer overflow: packet lost
  }
  const SimTime start = n.cpuFreeAt_ > now ? n.cpuFreeAt_ : now;
  const SimTime done = start + n.serviceTime(pkt);
  n.cpuFreeAt_ = done;
  lsim.scheduleAt(done, [this, at, fromFace, p = std::move(pkt)]() mutable {
    if (!failed_.empty() && failed_.count(at)) {
      meterDrop();
      if (observer_) {
        observer_->onDrop(at, p, DropReason::CrashedQueued, node(at).shardSim_->now());
      }
      return;  // accepted pre-crash, but the CPU died with it still queued
    }
    if (observer_) observer_->onHandle(at, fromFace, p, node(at).shardSim_->now());
    node(at).handle(fromFace, p);
  });
}

}  // namespace gcopss
