#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace gcopss {

// Exact sliding-window structures over nonzero 64-bit keys (publication
// seqs). Semantically identical to the ring + unordered container pairs they
// replaced (tests/test_name.cpp keeps those as the reference): the window
// holds the last `window` distinct keys, evicting strictly in insertion
// order. Key 0 is reserved as the empty marker, matching the rings' existing
// convention (real seqs start at 1).
//
// SeqWindowTable is the one implementation; SeqWindow and SeqWindowMap are
// thin views over it. The table is open-addressed with power-of-two capacity
// (load factor <= 1/2) and linear probing kept in Robin Hood order. A key's
// home slot is its folded value `key ^ (key >> 32)` under the mask, not a
// mixed hash: consecutive seqs land in consecutive slots, so the seqs a node
// sees close together in time share cache lines instead of scattering over
// the whole table. Robin Hood order is what keeps that cheap: deletion
// shifts back only entries displaced from their home, so evicting the
// oldest of a dense run of seqs is O(1) rather than a walk over the run.
// Keys that agree in every folded bit under the mask (e.g. multiples of a
// power of two at least the capacity) still answer exactly, but share a
// probe chain.
//
// Each slot stores its key followed by a fixed number of payload words, so
// a lookup reads key and value from the same cache line.
//
// Storage is lazy and grows geometrically toward the window size: most nodes
// construct a window they barely touch (leaf routers, idle clients).

namespace detail {
inline std::size_t seqSlotCapacity(std::size_t window) {
  std::size_t p = 16;
  while (p < window * 2) p <<= 1;  // load factor <= 1/2
  return p;
}
inline std::size_t seqInitialCapacity(std::size_t window) {
  const std::size_t cap = seqSlotCapacity(window);
  return cap < 256 ? cap : 256;
}
inline std::size_t seqInitialRing(std::size_t window) {
  return window < 256 ? window : 256;
}
}  // namespace detail

// Window map from key to `payloadWords` 64-bit words, zeroed on first sight.
class SeqWindowTable {
 public:
  SeqWindowTable(std::size_t window, std::size_t payloadWords)
      : window_(window), stride_(1 + payloadWords) {}

  struct Entry {
    // The key's payload words; valid until the next findOrInsert/widen.
    std::uint64_t* payload;
    // True iff the key was not in the window (it is now, payload zeroed).
    bool inserted;
    // Insertion-order position of a newly inserted key, in [0, window):
    // the evicted key's position is handed to the key replacing it.
    std::size_t ringPos;
  };

  Entry findOrInsert(std::uint64_t key) {
    if (slots_.empty()) {
      ring_.assign(detail::seqInitialRing(window_), 0);
      slots_.assign(detail::seqInitialCapacity(window_) * stride_, 0);
      mask_ = slots_.size() / stride_ - 1;
    }
    for (std::size_t i = home(key), d = 0;; i = (i + 1) & mask_, ++d) {
      const std::uint64_t k = keyAt(i);
      if (k == key) return {payloadAt(i), false, 0};
      if (k == 0 || displacement(i, k) < d) break;
    }
    // The ring grows geometrically toward the window: finding it full while
    // below capacity means "make room", not "evict" — eviction starts
    // exactly once `window_` distinct keys are live.
    if (ring_[pos_] != 0 && ring_.size() < window_) growRing();
    const std::uint64_t evicted = ring_[pos_];
    if (evicted != 0) {
      erase(evicted);
      --count_;
    }
    if ((++count_) * 2 > mask_ + 1) grow((mask_ + 1) * 2);
    const std::size_t s = place(key);
    const std::size_t ringPos = pos_;
    ring_[pos_] = key;
    pos_ = pos_ + 1 == ring_.size() ? 0 : pos_ + 1;
    return {payloadAt(s), true, ringPos};
  }

  std::size_t payloadWords() const { return stride_ - 1; }

  // Re-lay every slot with `payloadWords` words (>= the current count); the
  // existing words keep their values, the new ones read zero.
  void widen(std::size_t payloadWords) {
    const std::size_t stride = 1 + payloadWords;
    assert(stride >= stride_);
    if (stride == stride_) return;
    if (!slots_.empty()) {
      std::vector<std::uint64_t> wider((mask_ + 1) * stride, 0);
      for (std::size_t s = 0; s <= mask_; ++s) {
        std::copy_n(&slots_[s * stride_], stride_, &wider[s * stride]);
      }
      slots_ = std::move(wider);
    }
    stride_ = stride;
  }

  void clear() {
    std::fill(ring_.begin(), ring_.end(), 0);
    std::fill(slots_.begin(), slots_.end(), 0);
    pos_ = 0;
    count_ = 0;
  }

 private:
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>(key ^ (key >> 32)) & mask_;
  }
  std::size_t displacement(std::size_t slot, std::uint64_t key) const {
    return (slot - home(key)) & mask_;
  }
  std::uint64_t keyAt(std::size_t slot) const { return slots_[slot * stride_]; }
  std::uint64_t* payloadAt(std::size_t slot) { return slots_.data() + slot * stride_ + 1; }
  void moveSlot(std::size_t from, std::size_t to) {
    std::copy_n(&slots_[from * stride_], stride_, &slots_[to * stride_]);
  }

  // Insert an absent key with a zero payload; returns its slot. The key
  // goes after every entry whose home is at or before its own; the run from
  // there up to the next empty slot moves one slot on, keeping each cluster
  // sorted by home (the Robin Hood invariant the early exits rely on).
  std::size_t place(std::uint64_t key) {
    std::size_t i = home(key);
    for (std::size_t d = 0; keyAt(i) != 0 && displacement(i, keyAt(i)) >= d; ++d) {
      i = (i + 1) & mask_;
    }
    std::size_t j = i;
    while (keyAt(j) != 0) j = (j + 1) & mask_;
    while (j != i) {
      const std::size_t prev = (j - 1) & mask_;
      moveSlot(prev, j);
      j = prev;
    }
    std::fill_n(&slots_[i * stride_], stride_, 0);
    slots_[i * stride_] = key;
    return i;
  }

  // Backward-shift deletion: pull the entries displaced from their home one
  // slot back, stopping at an empty slot or one already at home.
  void erase(std::uint64_t key) {
    std::size_t i = home(key);
    while (keyAt(i) != key) i = (i + 1) & mask_;
    for (std::size_t j = (i + 1) & mask_;
         keyAt(j) != 0 && displacement(j, keyAt(j)) != 0; j = (j + 1) & mask_) {
      moveSlot(j, i);
      i = j;
    }
    std::fill_n(&slots_[i * stride_], stride_, 0);
  }

  void grow(std::size_t capacity) {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(capacity * stride_, 0);
    mask_ = capacity - 1;
    for (std::size_t s = 0; s < old.size(); s += stride_) {
      if (old[s] == 0) continue;
      const std::size_t to = place(old[s]);
      std::copy_n(old.data() + s + 1, stride_ - 1, payloadAt(to));
    }
  }

  void growRing() {
    // Below the window nothing is ever evicted, so the ring fills in order
    // from position 0 and is first found full just as `pos_` wraps to 0:
    // extending it in place keeps every key's position.
    assert(pos_ == 0);
    const std::size_t n = ring_.size();
    ring_.resize(std::min(n * 2, window_), 0);
    pos_ = n;
  }

  std::size_t window_;
  std::size_t stride_;  // 1 key word + payload words per slot
  std::vector<std::uint64_t> ring_;  // keys in insertion order
  std::size_t pos_ = 0;
  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

// Membership-only window: "have I delivered this seq recently?"
class SeqWindow {
 public:
  explicit SeqWindow(std::size_t window = 4096) : table_(window, 0) {}

  // True iff `key` is already in the window; otherwise records it (evicting
  // the oldest entry once the window is full).
  bool checkAndInsert(std::uint64_t key) { return !table_.findOrInsert(key).inserted; }

  void clear() { table_.clear(); }

 private:
  SeqWindowTable table_;
};

// Window map: seq -> V, find-or-create with insertion-order eviction.
// Values live in a ring-parallel array — the entry evicted from a ring
// position hands its (capacity-retaining) value object straight to the key
// replacing it — so the table's one payload word is the ring position.
template <typename V>
class SeqWindowMap {
 public:
  explicit SeqWindowMap(std::size_t window = 4096) : table_(window, 1) {}

  // The value for `key`, default-constructed (or recycled empty) on first
  // sight within the window. The reference is valid until the next at().
  V& at(std::uint64_t key) {
    const SeqWindowTable::Entry e = table_.findOrInsert(key);
    if (!e.inserted) return vals_[static_cast<std::size_t>(e.payload[0])];
    e.payload[0] = e.ringPos;
    if (vals_.size() <= e.ringPos) vals_.resize(e.ringPos + 1);
    V& v = vals_[e.ringPos];
    v.clear();
    return v;
  }

  void clear() {
    table_.clear();
    for (auto& v : vals_) v.clear();
  }

 private:
  SeqWindowTable table_;
  std::vector<V> vals_;
};

}  // namespace gcopss
