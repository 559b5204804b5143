#include "des/parallel.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace gcopss {
namespace {

// Spin-wait hint: lets a sibling hyperthread run while a worker polls.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

// Round-start handoff budget: a worker polls roundGen_ this many times
// (yielding after the first kPureSpins) before it parks. The main thread
// publishes the next round a few microseconds after the last barrier of a
// busy run, well inside the budget; a worker waiting through a long global
// phase or between run() calls parks instead of burning a core.
constexpr int kPureSpins = 2000;
constexpr int kYieldSpins = 200;

}  // namespace

thread_local std::size_t ParallelSimulator::tlsShard_ =
    ParallelSimulator::kNoShard;

ParallelSimulator::ParallelSimulator(Simulator& globalLane, Options opts)
    : global_(globalLane) {
  if (opts.workers < 1) throw std::invalid_argument("ParallelSimulator needs at least one worker");
  shards_.reserve(opts.workers);
  for (std::size_t i = 0; i < opts.workers; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  outbound_.resize(opts.workers * opts.workers);
  threads_.reserve(opts.workers - 1);
  for (std::size_t i = 1; i < opts.workers; ++i) {
    threads_.emplace_back([this, i] { workerLoop(i); });
  }
}

ParallelSimulator::~ParallelSimulator() {
  exit_.store(true, std::memory_order_relaxed);
  publishRound();
  for (auto& t : threads_) t.join();
}

void ParallelSimulator::setLookahead(SimTime l) {
  if (l <= 0) throw std::invalid_argument("ParallelSimulator lookahead must be positive");
  lookahead_ = l;
}

void ParallelSimulator::throwInsideWindow(SimTime when) const {
  throw std::logic_error(
      "cross-shard post at t=" + std::to_string(when) + " lands inside the round ending at t=" +
      std::to_string(window_) + ": a cut link is shorter than the lookahead (" +
      std::to_string(lookahead_) + ")");
}

void ParallelSimulator::publishRound() {
  // seq_cst pairs with awaitRound's parked_ increment and roundGen_ re-read:
  // either this load sees the parked worker, or that worker sees the new
  // generation before it waits.
  roundGen_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    MutexLock lk(parkMu_);
    parkCv_.notify_all();
  }
}

std::uint64_t ParallelSimulator::awaitRound(std::uint64_t seen) {
  for (int spins = 0; spins < kPureSpins + kYieldSpins; ++spins) {
    const std::uint64_t g = roundGen_.load(std::memory_order_acquire);
    if (g != seen) return g;
    if (spins < kPureSpins) {
      cpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
  CvLock lk(parkMu_);
  parked_.fetch_add(1, std::memory_order_seq_cst);
  std::uint64_t g = roundGen_.load(std::memory_order_seq_cst);
  while (g == seen) {
    parkCv_.wait(lk);
    g = roundGen_.load(std::memory_order_seq_cst);
  }
  parked_.fetch_sub(1, std::memory_order_relaxed);
  return g;
}

void ParallelSimulator::workerLoop(std::size_t self) {
  std::uint64_t seen = 0;
  for (;;) {
    seen = awaitRound(seen);
    if (exit_.load(std::memory_order_relaxed)) return;
    runRound(self);
  }
}

void ParallelSimulator::barrierArrive() {
  const auto gen = barrierGen_.load(std::memory_order_acquire);
  const auto k = static_cast<std::uint32_t>(shards_.size());
  if (barrierArrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == k) {
    // Last arriver: reset the counter for the next barrier, then flip the
    // generation to release the spinners. Threads only touch the counter
    // again after observing the new generation, so the reset cannot race.
    barrierArrived_.store(0, std::memory_order_relaxed);
    barrierGen_.fetch_add(1, std::memory_order_release);
  } else {
    // Spin briefly, then yield: the engine must stay usable when workers
    // outnumber cores (CI runners, sanitizer jobs, 1-core containers).
    int spins = 0;
    while (barrierGen_.load(std::memory_order_acquire) == gen) {
      if (++spins > 64) std::this_thread::yield();
    }
  }
}

void ParallelSimulator::runRound(std::size_t self) {
  tlsShard_ = self;
  try {
    shards_[self]->runUntilBefore(window_);
  } catch (...) {
    MutexLock lk(errorMu_);
    if (!firstError_) firstError_ = std::current_exception();
  }
  barrierArrive();  // every shard done executing; outbound buffers final
  try {
    mergeInbound(self);
  } catch (...) {
    MutexLock lk(errorMu_);
    if (!firstError_) firstError_ = std::current_exception();
  }
  barrierArrive();  // every merge done; shard queues quiescent again
  tlsShard_ = kNoShard;
}

void ParallelSimulator::mergeInbound(std::size_t dst) {
  // Arrival order does not matter: each post carries its full order key, so
  // the shard queue places it exactly where a direct post would have.
  Simulator& s = *shards_[dst];
  const std::size_t k = shards_.size();
  for (std::size_t src = 0; src < k; ++src) {
    auto& buf = outbound_[src * k + dst].q;
    for (Remote& r : buf) s.scheduleKeyedAt(r.when, r.sent, r.tie, std::move(r.fn));
    buf.clear();
  }
}

std::uint64_t ParallelSimulator::run(SimTime until) {
  const std::uint64_t before = totalEventsExecuted();
  for (;;) {
    {
      MutexLock lk(errorMu_);
      if (firstError_) std::rethrow_exception(firstError_);
    }
    const SimTime g = global_.nextEventWhen();
    SimTime sMin = Simulator::kNoEvent;
    for (auto& s : shards_) sMin = std::min(sMin, s->nextEventWhen());
    const SimTime next = std::min(g, sMin);
    if (next == Simulator::kNoEvent || next > until) break;

    if (g <= sMin) {
      // Sequential phase: the earliest pending event lives on the global
      // lane. Line every shard's clock up on it (legal: no shard event
      // precedes g) so the handler sees a consistent "now" everywhere, then
      // run all global events at that timestamp with the workers parked.
      for (auto& s : shards_) s->advanceTo(g);
      global_.run(g);
      ++globalPhases_;
      continue;
    }

    // Parallel round over [sMin, W). Where W falls never changes what any
    // node executes (every event is ordered by its own key), only how much
    // work each barrier covers.
    const SimTime cap = (until == INT64_MAX) ? INT64_MAX : until + 1;
    SimTime w = (sMin > INT64_MAX - lookahead_) ? INT64_MAX
                                                : sMin + lookahead_;
    w = std::min(std::min(w, g), cap);
    window_ = w;
    publishRound();
    runRound(0);  // the calling thread is worker 0
    ++rounds_;
  }
  {
    MutexLock lk(errorMu_);
    if (firstError_) std::rethrow_exception(firstError_);
  }
  return totalEventsExecuted() - before;
}

std::uint64_t ParallelSimulator::totalEventsExecuted() const {
  std::uint64_t total = global_.totalEventsExecuted();
  for (const auto& s : shards_) total += s->totalEventsExecuted();
  return total;
}

}  // namespace gcopss
