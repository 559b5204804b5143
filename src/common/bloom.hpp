#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/name.hpp"

namespace gcopss {

// Kirsch–Mitzenmacher probe schedule for a Bloom geometry (`bits` counters,
// `k` probes): probe i lands on index(h + i * (mix64(h)|1)). Split out of
// CountingBloomFilter so the Subscription Table's transposed bit-plane index
// (copss/st.hpp) can sweep plane rows for a hash without a filter instance
// in hand. CountingBloomFilter delegates every probe to this class, so the
// positions are bit-identical by construction — they feed matching
// decisions, so they are behaviour, not just speed.
class BloomProbeSchedule {
 public:
  explicit BloomProbeSchedule(std::size_t bits = 1 << 14, unsigned k = 7)
      : bits_(bits), k_(k) {
    if (bits > 0 && (bits & (bits - 1)) == 0) mask_ = bits - 1;
  }

  // Reduce a probe value to a counter index. `x % 2^k == x & (2^k - 1)`, so
  // for the (default) power-of-two sizes the mask path lands on exactly the
  // same counters as the modulo — only the division is gone.
  std::size_t index(std::uint64_t x) const {
    return static_cast<std::size_t>(mask_ != 0 ? x & mask_ : x % bits_);
  }

  // Enumerate the probe positions (counter indices) `nameHash` maps to, in
  // probe order.
  template <typename Fn>
  void forEachProbe(std::uint64_t nameHash, Fn&& fn) const {
    const std::uint64_t h2 = mix64(nameHash) | 1;
    for (unsigned i = 0; i < k_; ++i) fn(index(nameHash + i * h2));
  }

  // Like forEachProbe, but stops as soon as `fn` returns false (the ST's
  // bit-plane sweep bails once its candidate word set goes empty). Returns
  // true iff every probe ran.
  template <typename Fn>
  bool forEachProbeWhile(std::uint64_t nameHash, Fn&& fn) const {
    const std::uint64_t h2 = mix64(nameHash) | 1;
    for (unsigned i = 0; i < k_; ++i) {
      if (!fn(index(nameHash + i * h2))) return false;
    }
    return true;
  }

  std::size_t bits() const { return bits_; }
  unsigned hashes() const { return k_; }

 private:
  std::size_t bits_;
  unsigned k_;
  std::uint64_t mask_ = 0;  // bits-1 when bits is a power of two, else 0
};

// Counting Bloom filter over Names (CDs). COPSS keeps one per face in the
// Subscription Table; counting (4-bit saturating counters widened to uint8)
// is required because Unsubscribe must be able to remove entries.
//
// The filter is keyed by the name's stable 64-bit hash, so the paper's
// "hash at the first-hop router and forward hash values" optimisation is a
// matter of calling the uint64 overloads directly.
class CountingBloomFilter {
 public:
  // `bits` counters, `k` hash functions. Defaults sized for a few thousand
  // CDs per face at ~1e-4 false-positive rate.
  explicit CountingBloomFilter(std::size_t bits = 1 << 14, unsigned k = 7);

  void add(const Name& name) { add(name.hash()); }
  void remove(const Name& name) { remove(name.hash()); }
  bool possiblyContains(const Name& name) const { return possiblyContains(name.hash()); }

  // Hot path: header-inline, with the second hash of the Kirsch–Mitzenmacher
  // pair hoisted out of the probe loop (index() recomputed it per probe).
  void add(std::uint64_t nameHash) {
    schedule_.forEachProbe(nameHash, [this](std::size_t idx) {
      auto& c = counters_[idx];
      if (c < 0xff) ++c;  // saturate; removal of a saturated counter is a no-op
    });
    ++entries_;
  }

  void remove(std::uint64_t nameHash) {
    // Removing an element that was never added would corrupt cells shared
    // with present elements (creating false negatives); guard against it.
    if (!possiblyContains(nameHash)) return;
    schedule_.forEachProbe(nameHash, [this](std::size_t idx) {
      auto& c = counters_[idx];
      if (c > 0 && c < 0xff) --c;
    });
    if (entries_ > 0) --entries_;
  }

  bool possiblyContains(std::uint64_t nameHash) const {
    const std::uint64_t h2 = mix64(nameHash) | 1;
    for (unsigned i = 0; i < k_; ++i) {
      if (counters_[schedule_.index(nameHash + i * h2)] == 0) return false;
    }
    return true;
  }

  // Probe positions for `nameHash`, in probe order — the bit-plane index
  // mirrors counter transitions into per-bit face words through this.
  template <typename Fn>
  void forEachProbe(std::uint64_t nameHash, Fn&& fn) const {
    schedule_.forEachProbe(nameHash, std::forward<Fn>(fn));
  }

  // Raw counter value at `idx` (bit-plane rebuild: a face's plane bit is
  // set iff the counter is non-zero).
  std::uint8_t counterAt(std::size_t idx) const { return counters_[idx]; }

  const BloomProbeSchedule& schedule() const { return schedule_; }

  void clear();
  bool emptyHint() const { return entries_ == 0; }
  std::size_t approxEntries() const { return entries_; }
  std::size_t bitCount() const { return counters_.size(); }
  unsigned hashCount() const { return k_; }

  // Predicted false-positive probability at the current fill level.
  double predictedFalsePositiveRate() const;

 private:
  std::vector<std::uint8_t> counters_;
  unsigned k_;
  BloomProbeSchedule schedule_;
  std::size_t entries_ = 0;  // adds minus removes (approximate set size)
};

}  // namespace gcopss
