#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "des/inline_handler.hpp"
#include "des/simulator.hpp"

namespace gcopss {

// Conservative parallel discrete-event engine. Nodes are partitioned into
// per-worker shards (the model layer — Network — decides the mapping); each
// shard is a complete serial Simulator executing its own key order, and the
// engine advances all shards together in time-windowed rounds:
//
//   window = min(earliest pending event across shards) + lookahead
//
// with lookahead = the minimum cross-shard latency the model guarantees (for
// the network model, the minimum delay over the links its partition cuts).
// Inside a round every shard executes its events with when < window on its
// own worker thread. A post to another shard necessarily lands at
// when >= window, so it cannot race the round — it is buffered in a per-pair
// SPSC queue and pushed into the destination at the round barrier. A post to
// the poster's own shard is scheduled directly, even inside the window.
//
// Determinism contract (docs/ARCHITECTURE.md "Threading model"):
//   * A post carries a key (when, sentAt, srcNode, srcSeq) that is a pure
//     function of the workload — never of thread timing, of the node->shard
//     mapping or of where round boundaries fall. The shard queue orders the
//     post by that key (Simulator::scheduleKeyedAt), so a direct same-shard
//     post and a merged cross-shard post take the same place, and the merge
//     needs no sort.
//   * Shard-local events (timers, CPU completions) keep the serial key
//     (when, sentAt, local counter) and sort before posts at equal
//     (when, sentAt).
//   * Sequential ("global") events — anything scheduled on the global lane,
//     e.g. harness lambdas that touch several nodes, fault-plan crash hooks —
//     run with every worker parked, after all shard events strictly before
//     their timestamp and before shard events at the same timestamp.
// Per-node event order is therefore the same at every thread count and for
// every partition. The serial engine resolves ties at identical
// (when, sentAt) between different producers by global execution order
// instead; tests/test_parallel pins that the two engines produce
// bit-identical per-node traces on the golden workloads.
class ParallelSimulator {
 public:
  static constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);
  // Lookahead of an engine no model has bounded yet: no post may cross
  // shards, and a round runs up to the next global event.
  static constexpr SimTime kUnbounded = INT64_MAX;

  struct Options {
    std::size_t workers = 2;
  };

  // `globalLane` is the caller-owned sequential Simulator (the one the
  // harness already has); its events become the global phase described above.
  ParallelSimulator(Simulator& globalLane, Options opts);
  ~ParallelSimulator();
  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  std::size_t workerCount() const { return shards_.size(); }
  SimTime lookahead() const { return lookahead_; }
  // Bound every cross-shard post to land at least `l` after it was sent.
  // The model layer sets this (Network::enableParallel derives it from its
  // partition); a cross-shard post inside the current window throws.
  void setLookahead(SimTime l);
  Simulator& shard(std::size_t i) { return *shards_[i]; }
  Simulator& globalLane() { return global_; }

  // Shard index the calling thread is currently executing, or kNoShard when
  // no parallel round is in flight (setup, global phase, teardown).
  static std::size_t currentShard() { return tlsShard_; }

  // Deterministic tie-break key for a post: `sent` is the producing event's
  // timestamp, (src, seq) a producer-unique id that does not depend on the
  // shard mapping (the network layer uses the sender NodeId and a per-node
  // send counter). src < 2^23 and seq < 2^40.
  struct RemoteKey {
    SimTime sent = 0;
    std::uint64_t src = 0;
    std::uint64_t seq = 0;
  };
  static constexpr std::uint64_t kMaxKeySrc = (1ULL << 23) - 1;

  // Schedule `fn` at `when` on shard `dst`, ordered by `key`. Same-shard and
  // sequential-context posts go straight into the shard's queue; a
  // cross-shard post from a worker is buffered until the round barrier and
  // must land at or after the current window end.
  template <typename F>
  void post(std::size_t dst, SimTime when, RemoteKey key, F&& fn) {
    assert(key.src <= kMaxKeySrc && key.seq < (1ULL << 40) && "post key out of range");
    const std::uint64_t tie = Simulator::kKeyedTie | (key.src << 40) | key.seq;
    const std::size_t cur = tlsShard_;
    if (cur == kNoShard || cur == dst) {
      shards_[dst]->scheduleKeyedAt(when, key.sent, tie, std::forward<F>(fn));
      return;
    }
    if (when < window_) throwInsideWindow(when);
    outbound_[cur * shards_.size() + dst].q.push_back(
        Remote{when, key.sent, tie, InlineHandler(std::forward<F>(fn))});
  }

  // Run until every lane drains or the earliest pending event is past
  // `until` (inclusive, matching Simulator::run). Returns events executed by
  // this call across all lanes.
  std::uint64_t run(SimTime until = INT64_MAX);

  std::uint64_t totalEventsExecuted() const;

  // Instrumentation for the bench harness / EXPERIMENTS.md: how many
  // parallel rounds and sequential (global-lane) phases the run used.
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t globalPhases() const { return globalPhases_; }

 private:
  struct Remote {
    SimTime when;
    SimTime sent;
    std::uint64_t tie;
    InlineHandler fn;
  };

  [[noreturn]] GCOPSS_COLD void throwInsideWindow(SimTime when) const;
  void workerLoop(std::size_t self);
  std::uint64_t awaitRound(std::uint64_t seen);
  void publishRound();
  void runRound(std::size_t self);
  void mergeInbound(std::size_t dst);
  void barrierArrive();

  Simulator& global_;
  SimTime lookahead_ = kUnbounded;
  std::vector<std::unique_ptr<Simulator>> shards_;
  // Flattened [src][dst] buffers. A buffer is written only by worker `src`
  // during the execution phase and read only by worker `dst` during the
  // merge phase; the two barriers between the phases order every access.
  // One cache line per buffer header: two workers push to theirs at once.
  struct alignas(64) Outbox {
    std::vector<Remote> q;
  };
  GCOPSS_SHARD_CONFINED std::vector<Outbox> outbound_;

  // ---- round coordination (main thread acts as worker 0) ----
  // The main thread writes window_, then bumps roundGen_ to start a round;
  // workers spin on roundGen_ briefly, then park on parkCv_. The main thread
  // takes parkMu_ and notifies only when a worker has parked, so a busy run
  // starts rounds without a syscall. Inside a round the two phase barriers
  // are sense-reversing and yield-friendly: this engine must behave on
  // oversubscribed hosts (CI runners, 1-core containers).
  std::atomic<std::uint64_t> roundGen_{0};
  std::atomic<std::uint32_t> parked_{0};
  std::atomic<bool> exit_{false};
  Mutex parkMu_;
  std::condition_variable parkCv_;
  // Written by the main thread before it bumps roundGen_, read lock-free by
  // workers inside the round: the roundGen_ release/acquire pair is the
  // synchronizing edge, and no write happens while any worker is running.
  SimTime window_ = 0;
  std::atomic<std::uint32_t> barrierArrived_{0};
  std::atomic<std::uint32_t> barrierGen_{0};
  std::vector<std::thread> threads_;  // workers 1..k-1
  std::exception_ptr firstError_ GCOPSS_GUARDED_BY(errorMu_);
  Mutex errorMu_;
  std::uint64_t rounds_ = 0;
  std::uint64_t globalPhases_ = 0;

  static thread_local std::size_t tlsShard_;
};

}  // namespace gcopss
