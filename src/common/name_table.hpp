#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/name.hpp"
#include "common/thread_annotations.hpp"

namespace gcopss {

// Dense id of an interned hierarchical name. Ids are assigned in first-seen
// order within a run (deterministic for a deterministic workload) and are
// only meaningful against the process-wide NameTable.
using NameId = std::uint32_t;

inline constexpr NameId kRootNameId = 0;
inline constexpr NameId kInvalidNameId = 0xffffffffu;

// Process-wide interner mapping each hierarchical name to a dense NameId
// with precomputed FNV hash, parent id, and depth. Interning turns the hot
// prefix operations — isPrefixOf / parent / prefix-hash enumeration for
// ST Bloom keys / CD-FIB longest-prefix walks — into integer array walks;
// `Name` stays the boundary/parse type for everything else.
//
// The hash stored per entry is bit-identical to Name::hash() of the
// materialized name, so interned and string-based call sites key the same
// Bloom filters and dedup maps interchangeably.
//
// Entries are never removed: names are tiny, the universe of CDs in a run is
// bounded (map areas + control names), and stable ids are what make cached
// NameIds in packets safe.
//
// Threading (read-mostly, shard-safe — see docs/ARCHITECTURE.md):
//   * Id-based reads (parent/depth/hash/component/prefix/isPrefixOf/name)
//     are lock-free. Entries live in fixed-size chunks whose addresses never
//     move, an entry is fully written before its id is published through the
//     release-store of count_, and entries are immutable afterwards. Any
//     thread that legitimately holds a NameId may use it.
//   * intern/child/find/findChild touch the children_ index and take a
//     shared_mutex (shared for pure lookups, exclusive to insert).
//   * Determinism across thread counts: NameId assignment order follows
//     intern order, so workloads that want bit-identical ids must intern
//     their name universe from sequential context (setup / the global lane)
//     — which every harness in this repo does. Worker-thread interning is
//     memory-safe but may permute ids between runs.
class NameTable {
 public:
  static NameTable& instance();

  NameTable();
  ~NameTable();
  NameTable(const NameTable&) = delete;
  NameTable& operator=(const NameTable&) = delete;

  // Intern (find-or-create) and return the id.
  NameId intern(const Name& name);
  NameId intern(std::string_view text) { return intern(Name::parse(text)); }
  // One-step intern of `component` under `parent`.
  NameId child(NameId parent, std::string_view component);

  // Lookup without interning; kInvalidNameId when absent.
  NameId find(const Name& name) const;
  NameId findChild(NameId parent, std::string_view component) const;
  // The deepest interned prefix of `name` (the root when nothing below it is
  // interned) and its depth, in one walk under one shared lock.
  std::pair<NameId, std::uint32_t> longestInternedPrefix(const Name& name) const;

  NameId parent(NameId id) const { return entry(id).parent; }
  std::uint32_t depth(NameId id) const { return entry(id).depth; }
  std::uint64_t hash(NameId id) const { return entry(id).hash; }
  // Last component; "" for the root.
  const std::string& component(NameId id) const { return entry(id).component; }

  // Ancestor of `id` at depth `n` (n <= depth(id)).
  NameId prefix(NameId id, std::uint32_t n) const;
  // True iff `a` names a (non-strict) prefix of `b`: walk b's parent chain.
  bool isPrefixOf(NameId a, NameId b) const;

  // Materialize back into the boundary type.
  Name name(NameId id) const;
  std::string toString(NameId id) const;

  std::size_t size() const { return count_.load(std::memory_order_acquire); }

  // Hard ceiling on interned names; intern/child throw std::length_error
  // once it is reached (adversarial decode input must not be able to grow
  // the process-global table without bound).
  static constexpr std::size_t capacity() { return kMaxChunks * kChunkSize; }

  // Drop every entry except the root. STRICTLY for test/fuzz harnesses run
  // from single-threaded context: every previously issued NameId (other than
  // kRootNameId) becomes dangling, so no simulator state may outlive the
  // call. Fuzz harnesses use it to keep the table from accreting across
  // millions of hostile decodes.
  void resetForTesting();

 private:
  struct Entry {
    NameId parent = kInvalidNameId;
    std::uint32_t depth = 0;
    std::uint64_t hash = 0;
    std::string component;
  };

  // Chunked stable storage: ids index into 1024-entry slabs that are
  // allocated once and never reallocated, so a published Entry's address is
  // stable for the table's lifetime (what makes the lock-free reads sound).
  static constexpr std::size_t kChunkShift = 10;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;
  static constexpr std::size_t kMaxChunks = 4096;  // 4M interned names

  const Entry& entry(NameId id) const {
    assert(id < size() && "NameId out of range");
    return chunks_[id >> kChunkShift].load(std::memory_order_acquire)
        [id & kChunkMask];
  }

  // Exact child lookup keyed (parent id, component). Heterogeneous hash/eq
  // so probes take a string_view without building a std::string.
  struct ChildKey {
    NameId parent;
    std::string component;
  };
  struct ChildProbe {
    NameId parent;
    std::string_view component;
  };
  struct ChildHash {
    using is_transparent = void;
    std::size_t operator()(const ChildKey& k) const {
      return static_cast<std::size_t>(mix64(fnv1a64(k.component) ^ k.parent));
    }
    std::size_t operator()(const ChildProbe& k) const {
      return static_cast<std::size_t>(mix64(fnv1a64(k.component) ^ k.parent));
    }
  };
  struct ChildEq {
    using is_transparent = void;
    static std::pair<NameId, std::string_view> view(const ChildKey& k) {
      return {k.parent, k.component};
    }
    static std::pair<NameId, std::string_view> view(const ChildProbe& k) {
      return {k.parent, k.component};
    }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return view(a) == view(b);
    }
  };

  // Appends and publishes a new entry (exclusive interning lock required —
  // enforced by -Wthread-safety under Clang).
  NameId appendLocked(NameId parent, std::string_view component)
      GCOPSS_REQUIRES(mu_);

  // Chunk slots and count_ are lock-free publication state, not guarded
  // data: readers go through the release-store of count_ (see class
  // comment). Only the children_ index needs the mutex.
  std::array<std::atomic<Entry*>, kMaxChunks> chunks_{};
  std::atomic<std::uint32_t> count_{0};
  mutable SharedMutex mu_;  // guards children_ + appends
  std::unordered_map<ChildKey, NameId, ChildHash, ChildEq> children_
      GCOPSS_GUARDED_BY(mu_);
};

}  // namespace gcopss
