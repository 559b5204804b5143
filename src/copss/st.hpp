#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/bloom.hpp"
#include "common/hash_refcount.hpp"
#include "common/name.hpp"
#include "net/packet.hpp"

namespace gcopss::copss {

// Subscription Table: <Face, BloomFilter<CD>> plus an exact refcounted CD map
// per face. The Bloom filter is the paper's data-path structure (checked for
// every prefix of an incoming CD); the exact map supports Unsubscribe
// refcounting, upstream aggregation decisions, and an exact-match mode used
// by the ablation bench to quantify Bloom false-positive leakage.
//
// The data plane has one matcher (DESIGN.md §4e): a transposed bit-plane
// index — for every Bloom counter index, a word holding one bit per face, set
// iff that face's counter is non-zero — swept word-parallel per prefix hash,
// fronted by a version-invalidated per-tick match cache keyed by the
// publication's folded prefix hashes. Its match sets, output order and
// bloomFalsePositives counter equal independent per-face Bloom probes; the
// reference model that checks this lives in tests/st_reference.hpp.
class SubscriptionTable {
 public:
  struct Options {
    bool useBloom = true;     // false = exact matching (ablation)
    std::size_t bloomBits = 1 << 14;
    unsigned bloomHashes = 7;
  };

  // Throws std::invalid_argument for a Bloom geometry with no counters or no
  // hash functions (the first would divide by zero on the first subscribe,
  // the second would let every filter pass vacuously).
  static void validate(const Options& opts);

  SubscriptionTable() : SubscriptionTable(Options{}) {}
  explicit SubscriptionTable(Options opts);

  // Returns true if this is the first subscription for `cd` across all faces
  // (i.e. the router should propagate the Subscribe upstream).
  bool subscribe(NodeId face, const Name& cd);

  // Returns true if no face remains subscribed to `cd` afterwards.
  bool unsubscribe(NodeId face, const Name& cd);

  // The data-plane match: clears `out` and fills it, in ascending face order,
  // with every face whose filter matches any prefix of any carried CD, minus
  // faces pruned for all of the carried CDs, excluding `excludeFace` (the
  // arrival face). `prefixHashes` are the pre-computed hashes of every prefix
  // level of every CD (the paper's hash-at-first-hop optimisation); `cds` is
  // only consulted on faces with active prunes. `matchKey` is the packet's
  // precomputed foldPrefixHashes() value, so a cache hit costs one mix and
  // one probe instead of re-hashing the CD set at every hop. Only this entry
  // point counts Bloom false positives.
  void matchFacesHashedInto(const std::vector<Name>& cds,
                            const std::vector<std::uint64_t>& prefixHashes,
                            std::uint64_t matchKey, NodeId excludeFace,
                            std::vector<NodeId>& out) const;

  // True if any face (excluding `excludeFace`) would match `cds`.
  bool anyMatch(const std::vector<Name>& cds, NodeId excludeFace = kInvalidNode) const;

  // Does this table hold a subscription (on any face) whose CD intersects
  // `cd` (is a prefix of it or has it as a prefix)? Used by the migration
  // protocol to decide tree membership.
  bool hasIntersectingSubscription(const Name& cd) const;

  // --- migration support (Section IV-B) ---
  // Prune: stop delivering the exact CD `cd` to `face` even though a coarser
  // subscription on that face still matches it. Cleared by a later
  // subscribe() of `cd` or an ancestor on the same face.
  void prune(NodeId face, const Name& cd);
  bool isPruned(NodeId face, const Name& cd) const;

  // All faces with at least one live (non-pruned, for `cd`) matching entry.
  std::vector<NodeId> facesMatching(const Name& cd) const;

  std::vector<NodeId> faces() const;
  std::size_t faceCount() const { return table_.size(); }
  // Distinct CDs subscribed on `face` (exact granularity).
  std::vector<Name> cdsOnFace(NodeId face) const;
  bool faceSubscribed(NodeId face, const Name& cd) const;

  // Total number of distinct (face, cd) subscription pairs.
  std::size_t entryCount() const;

  std::uint64_t bloomFalsePositives() const { return bloomFalsePositives_; }

  // Per-tick match cache effectiveness (perfbench's st.cache_hit_ratio).
  std::uint64_t matchCacheHits() const { return cacheHits_; }
  std::uint64_t matchCacheMisses() const { return cacheMisses_; }

  const Options& options() const { return opts_; }

  // --- audit interface (src/check invariant checker) ---
  // Soundness probe: would `face`'s Bloom filter pass `cd`? Every live exact
  // subscription MUST probe true, or the data plane silently starves that
  // face. False for an unknown face.
  bool bloomMightContain(NodeId face, const Name& cd) const;
  // Exact CDs pruned on `face` (migration leftovers the auditor checks).
  std::vector<Name> prunedOnFace(NodeId face) const;
  // Predicted false-positive rate of `face`'s filter at its current fill
  // (0.0 for an unknown face) — the drift baseline the auditor measures
  // observed false positives against.
  double predictedFalsePositiveRate(NodeId face) const;

  // TEST-ONLY: desynchronise `face`'s Bloom filter from its exact map by
  // removing `cd` from the filter while the exact entry stays live — the
  // corruption the ST-soundness invariant exists to catch. Never call this
  // outside a negative test of the invariant checker. The bit-plane mirror
  // follows the corruption, as it would any counter transition.
  void corruptBloomForAudit(NodeId face, const Name& cd);

  // The bit-plane index holds raw pointers into `table_` map nodes (stable
  // under std::map moves, not under copies).
  SubscriptionTable(const SubscriptionTable&) = delete;
  SubscriptionTable& operator=(const SubscriptionTable&) = delete;
  SubscriptionTable(SubscriptionTable&&) = default;
  SubscriptionTable& operator=(SubscriptionTable&&) = default;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::size_t kMatchCacheSlots = 256;  // direct-mapped lines

  struct FaceEntry {
    CountingBloomFilter bloom;
    std::map<Name, std::uint32_t> exact;  // cd -> refcount
    HashRefcountMap exactHashes;  // hash -> refcount
    std::set<Name> pruned;
    std::uint32_t slot = kNoSlot;  // column in the bit-plane index

    FaceEntry(std::size_t bits, unsigned k) : bloom(bits, k) {}
  };

  // Exact-Name probe of every prefix of every unpruned CD. Only the data
  // plane passes `countFalsePositives`: control-plane queries must not move
  // the data-plane counter.
  bool faceMatches(const FaceEntry& e, const std::vector<Name>& cds,
                   bool countFalsePositives) const;

  // The exact-match ablation (useBloom=false): per-face exact hash probes.
  void exactMatchInto(const std::vector<Name>& cds,
                      const std::vector<std::uint64_t>& prefixHashes, NodeId excludeFace,
                      std::vector<NodeId>& out) const;

  // --- bit-plane index maintenance (all control-plane / cold) ---
  void attachSlot(NodeId face, FaceEntry& e);
  void releaseSlot(FaceEntry& e);
  void rebuildPlanes();
  // Re-derive the plane bits for `e`'s column at every probe position of
  // `nameHash` from the filter's counters — correct after any add/remove,
  // including saturated and guarded (no-op) ones.
  void syncPlanes(const FaceEntry& e, std::uint64_t nameHash);
  void updatePrunedBit(const FaceEntry& e);
  void bumpVersion() { ++version_; }

  // The word-parallel sweep (cache miss).
  void sweepMatchInto(const std::vector<Name>& cds,
                      const std::vector<std::uint64_t>& prefixHashes, NodeId excludeFace,
                      std::vector<NodeId>& out) const;

  Options opts_;
  std::map<NodeId, FaceEntry> table_;  // ordered for deterministic iteration
  std::map<Name, std::uint32_t> globalRefcount_;  // cd -> #faces subscribed
  mutable std::uint64_t bloomFalsePositives_ = 0;

  // --- transposed bit-plane index (maintained whenever useBloom is set) ---
  BloomProbeSchedule probes_;          // same geometry as every face filter
  std::size_t planeWords_ = 0;         // 64-face words per counter row
  std::vector<std::uint64_t> planes_;  // bloomBits rows x planeWords_ words
  std::vector<const FaceEntry*> slotEntry_;  // column -> face entry (null = free)
  std::vector<std::uint32_t> freeSlots_;
  std::vector<std::uint64_t> prunedMask_;  // columns with active prunes
  std::size_t prunedFaces_ = 0;            // faces with a non-empty prune set
  std::uint64_t version_ = 0;              // bumped on any mutation

  // --- per-tick match cache (publications sharing a CD set at one hop) ---
  struct CacheLine {
    // Typical fan-out is bounded by node degree; keeping it inline makes a
    // cache hit touch only the line itself instead of hopping to a per-line
    // heap block. Wider face lists (rare) spill to the overflow vector.
    static constexpr std::uint32_t kInlineFaces = 12;
    std::uint64_t key = 0;
    std::uint64_t version = ~0ull;  // never equals a live version_
    std::uint32_t fpHits = 0;       // bloomFalsePositives_ delta to replay
    std::uint32_t count = 0;        // faces cached; > kInlineFaces => overflow
    NodeId faces[kInlineFaces];
    std::vector<NodeId> overflow;
  };
  mutable std::vector<CacheLine> cache_;
  mutable std::uint64_t cacheHits_ = 0;
  mutable std::uint64_t cacheMisses_ = 0;

  // Sweep scratch, capacity-recycled across calls.
  mutable std::vector<std::uint64_t> sweepHit_;
  mutable std::vector<std::uint64_t> sweepMatched_;
};

}  // namespace gcopss::copss
