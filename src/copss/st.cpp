#include "copss/st.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/thread_annotations.hpp"

namespace gcopss::copss {

void SubscriptionTable::validate(const Options& opts) {
  if (opts.bloomBits == 0) {
    throw std::invalid_argument("SubscriptionTable: bloomBits must be > 0");
  }
  if (opts.bloomHashes == 0) {
    throw std::invalid_argument("SubscriptionTable: bloomHashes must be > 0");
  }
}

SubscriptionTable::SubscriptionTable(Options opts)
    : opts_(opts), probes_(opts.bloomBits, opts.bloomHashes) {
  validate(opts_);
  if (opts_.useBloom) cache_.resize(kMatchCacheSlots);
}

// --- bit-plane index maintenance -------------------------------------------
// All of this runs on the control plane (subscribe/unsubscribe/prune), never
// per packet; the cold markers double as gcopss-tidy hot-alloc barriers.

GCOPSS_COLD void SubscriptionTable::attachSlot(NodeId face, FaceEntry& e) {
  (void)face;
  if (!freeSlots_.empty()) {
    e.slot = freeSlots_.back();
    freeSlots_.pop_back();
    slotEntry_[e.slot] = &e;  // column bits were scrubbed by releaseSlot
    return;
  }
  e.slot = static_cast<std::uint32_t>(slotEntry_.size());
  slotEntry_.push_back(&e);
  if (slotEntry_.size() > planeWords_ * 64) rebuildPlanes();
}

GCOPSS_COLD void SubscriptionTable::rebuildPlanes() {
  planeWords_ = (slotEntry_.size() + 63) / 64;
  if (planeWords_ == 0) planeWords_ = 1;
  planes_.assign(opts_.bloomBits * planeWords_, 0);
  prunedMask_.assign(planeWords_, 0);
  sweepHit_.assign(planeWords_, 0);
  sweepMatched_.assign(planeWords_, 0);
  for (std::uint32_t s = 0; s < slotEntry_.size(); ++s) {
    const FaceEntry* e = slotEntry_[s];
    if (e == nullptr) continue;
    const std::uint64_t bit = 1ull << (s % 64);
    const std::size_t w = s / 64;
    for (std::size_t idx = 0; idx < opts_.bloomBits; ++idx) {
      if (e->bloom.counterAt(idx) != 0) planes_[idx * planeWords_ + w] |= bit;
    }
    if (!e->pruned.empty()) prunedMask_[w] |= bit;
  }
}

GCOPSS_COLD void SubscriptionTable::releaseSlot(FaceEntry& e) {
  if (e.slot == kNoSlot) return;
  const std::uint64_t bit = 1ull << (e.slot % 64);
  const std::size_t w = e.slot / 64;
  for (std::size_t idx = 0; idx < opts_.bloomBits; ++idx) {
    planes_[idx * planeWords_ + w] &= ~bit;
  }
  if (prunedMask_[w] & bit) {
    prunedMask_[w] &= ~bit;
    --prunedFaces_;
  }
  slotEntry_[e.slot] = nullptr;
  freeSlots_.push_back(e.slot);
  e.slot = kNoSlot;
}

void SubscriptionTable::syncPlanes(const FaceEntry& e, std::uint64_t nameHash) {
  if (e.slot == kNoSlot) return;
  const std::uint64_t bit = 1ull << (e.slot % 64);
  const std::size_t w = e.slot / 64;
  // Re-derive each touched bit from the counter rather than mirroring the
  // operation: add() saturates and remove() guards/never-decrements-0xff, so
  // "counter non-zero" is the only transition rule that is always right.
  e.bloom.forEachProbe(nameHash, [&](std::size_t idx) {
    std::uint64_t& word = planes_[idx * planeWords_ + w];
    if (e.bloom.counterAt(idx) != 0) {
      word |= bit;
    } else {
      word &= ~bit;
    }
  });
}

void SubscriptionTable::updatePrunedBit(const FaceEntry& e) {
  if (e.slot == kNoSlot) return;
  const std::uint64_t bit = 1ull << (e.slot % 64);
  const std::size_t w = e.slot / 64;
  const bool now = !e.pruned.empty();
  const bool was = (prunedMask_[w] & bit) != 0;
  if (now == was) return;
  if (now) {
    prunedMask_[w] |= bit;
    ++prunedFaces_;
  } else {
    prunedMask_[w] &= ~bit;
    --prunedFaces_;
  }
}

// --- subscription state ---------------------------------------------------

bool SubscriptionTable::subscribe(NodeId face, const Name& cd) {
  auto it = table_.find(face);
  if (it == table_.end()) {
    it = table_.emplace(face, FaceEntry(opts_.bloomBits, opts_.bloomHashes)).first;
    if (opts_.useBloom) attachSlot(face, it->second);
  }
  FaceEntry& e = it->second;
  if (++e.exact[cd] == 1) {
    e.bloom.add(cd);
    if (opts_.useBloom) syncPlanes(e, cd.hash());
  }
  e.exactHashes.increment(cd.hash());
  // A fresh subscription clears prunes of this CD and of anything below it.
  for (auto pit = e.pruned.begin(); pit != e.pruned.end();) {
    if (cd.isPrefixOf(*pit)) {
      pit = e.pruned.erase(pit);
    } else {
      ++pit;
    }
  }
  if (opts_.useBloom) {
    updatePrunedBit(e);
    bumpVersion();
  }
  return ++globalRefcount_[cd] == 1;
}

bool SubscriptionTable::unsubscribe(NodeId face, const Name& cd) {
  const auto it = table_.find(face);
  if (it == table_.end()) return false;
  FaceEntry& e = it->second;
  const auto cit = e.exact.find(cd);
  if (cit == e.exact.end()) return false;
  if (--cit->second == 0) {
    e.exact.erase(cit);
    e.bloom.remove(cd);
    if (opts_.useBloom) syncPlanes(e, cd.hash());
  }
  e.exactHashes.decrement(cd.hash());
  if (e.exact.empty()) {
    if (opts_.useBloom) releaseSlot(e);
    table_.erase(it);
  }
  if (opts_.useBloom) bumpVersion();

  const auto git = globalRefcount_.find(cd);
  if (git != globalRefcount_.end() && --git->second == 0) {
    globalRefcount_.erase(git);
    return true;
  }
  return false;
}

// --- matching -------------------------------------------------------------

bool SubscriptionTable::faceMatches(const FaceEntry& e, const std::vector<Name>& cds,
                                    bool countFalsePositives) const {
  for (const Name& cd : cds) {
    if (e.pruned.count(cd)) continue;
    // Check the filter for every prefix level of the CD (the paper's
    // "/sports and /sports/football" walk).
    for (std::size_t len = 0; len <= cd.size(); ++len) {
      const Name p = cd.prefix(len);
      if (!opts_.useBloom) {
        if (e.exact.count(p)) return true;
      } else if (e.bloom.possiblyContains(p)) {
        if (countFalsePositives && !e.exact.count(p)) ++bloomFalsePositives_;
        return true;
      }
    }
  }
  return false;
}

void SubscriptionTable::exactMatchInto(const std::vector<Name>& cds,
                                       const std::vector<std::uint64_t>& prefixHashes,
                                       NodeId excludeFace, std::vector<NodeId>& out) const {
  for (const auto& [face, e] : table_) {
    if (face == excludeFace) continue;
    if (!e.pruned.empty()) {
      if (faceMatches(e, cds, /*countFalsePositives=*/true)) out.push_back(face);
      continue;
    }
    for (std::uint64_t h : prefixHashes) {
      if (e.exactHashes.contains(h)) {
        out.push_back(face);
        break;
      }
    }
  }
}

GCOPSS_HOT void SubscriptionTable::matchFacesHashedInto(const std::vector<Name>& cds,
                                             const std::vector<std::uint64_t>& prefixHashes,
                                             std::uint64_t matchKey, NodeId excludeFace,
                                             std::vector<NodeId>& out) const {
  out.clear();
  if (!opts_.useBloom) {
    exactMatchInto(cds, prefixHashes, excludeFace, out);
    return;
  }
  if (table_.empty()) return;
  // Per-tick cache: publications fanning out through one hop within a tick
  // overwhelmingly carry the same CD set (same region/zone), so the whole
  // match — face list plus false-positive accounting — is replayed from the
  // line. Bypassed while any face has prunes: those faces match on exact
  // Names, and the line is keyed by hashes alone.
  CacheLine* line = nullptr;
  if (prunedFaces_ == 0) {
    const std::uint64_t tag =
        mix64(matchKey ^ (0xda942042e4dd58b5ULL + static_cast<std::uint64_t>(excludeFace)));
    line = &cache_[tag & (cache_.size() - 1)];
    if (line->key == tag && line->version == version_) {
      ++cacheHits_;
      bloomFalsePositives_ += line->fpHits;
      if (line->count <= CacheLine::kInlineFaces) {
        out.insert(out.end(), line->faces, line->faces + line->count);
      } else {
        out.insert(out.end(), line->overflow.begin(), line->overflow.end());
      }
      return;
    }
    line->key = tag;
  }
  ++cacheMisses_;
  const std::uint64_t fpBefore = bloomFalsePositives_;
  sweepMatchInto(cds, prefixHashes, excludeFace, out);
  if (line != nullptr) {
    line->version = version_;
    line->fpHits = static_cast<std::uint32_t>(bloomFalsePositives_ - fpBefore);
    line->count = static_cast<std::uint32_t>(out.size());
    if (out.size() <= CacheLine::kInlineFaces) {
      std::copy(out.begin(), out.end(), line->faces);
    } else {
      line->overflow.assign(out.begin(), out.end());
    }
  }
}

GCOPSS_HOT void SubscriptionTable::sweepMatchInto(const std::vector<Name>& cds,
                                       const std::vector<std::uint64_t>& prefixHashes,
                                       NodeId excludeFace, std::vector<NodeId>& out) const {
  const std::size_t W = planeWords_;
  for (std::size_t w = 0; w < W; ++w) sweepMatched_[w] = 0;
  std::uint32_t exSlot = kNoSlot;
  if (excludeFace != kInvalidNode) {
    const auto it = table_.find(excludeFace);
    if (it != table_.end()) exSlot = it->second.slot;
  }
  for (std::uint64_t h : prefixHashes) {
    // AND the k plane rows for this hash: a face's bit survives iff all of
    // its counters at the probe positions are non-zero — exactly
    // possiblyContains(h) for every face at once, one word per 64 faces.
    bool first = true;
    const bool candidates = probes_.forEachProbeWhile(h, [&](std::size_t idx) {
      const std::uint64_t* row = &planes_[idx * W];
      std::uint64_t any = 0;
      for (std::size_t w = 0; w < W; ++w) {
        const std::uint64_t v = first ? row[w] : (sweepHit_[w] & row[w]);
        sweepHit_[w] = v;
        any |= v;
      }
      first = false;
      return any != 0;
    });
    if (!candidates) continue;
    for (std::size_t w = 0; w < W; ++w) {
      // A face is accounted at its first matching hash, as a per-face probe
      // loop would return early; pruned faces take the exact-Name path
      // below and the arrival face is never evaluated at all.
      std::uint64_t newly = sweepHit_[w] & ~sweepMatched_[w] & ~prunedMask_[w];
      if (exSlot != kNoSlot && exSlot / 64 == w) newly &= ~(1ull << (exSlot % 64));
      sweepMatched_[w] |= newly;
      while (newly != 0) {
        const unsigned b = static_cast<unsigned>(__builtin_ctzll(newly));
        newly &= newly - 1;
        const std::uint32_t s = static_cast<std::uint32_t>(w * 64 + b);
        if (!slotEntry_[s]->exactHashes.contains(h)) ++bloomFalsePositives_;
      }
    }
  }
  // Emit in table_ (ascending face) order.
  for (const auto& [face, e] : table_) {
    if (face == excludeFace) continue;
    if (!e.pruned.empty()) {
      if (faceMatches(e, cds, /*countFalsePositives=*/true)) out.push_back(face);
      continue;
    }
    if (sweepMatched_[e.slot / 64] & (1ull << (e.slot % 64))) out.push_back(face);
  }
}

bool SubscriptionTable::anyMatch(const std::vector<Name>& cds, NodeId excludeFace) const {
  for (const auto& [face, entry] : table_) {
    if (face == excludeFace) continue;
    if (faceMatches(entry, cds, /*countFalsePositives=*/false)) return true;
  }
  return false;
}

bool SubscriptionTable::hasIntersectingSubscription(const Name& cd) const {
  for (const auto& [sub, count] : globalRefcount_) {
    (void)count;
    if (sub.isPrefixOf(cd) || cd.isPrefixOf(sub)) return true;
  }
  return false;
}

void SubscriptionTable::prune(NodeId face, const Name& cd) {
  const auto it = table_.find(face);
  if (it == table_.end()) return;
  it->second.pruned.insert(cd);
  if (opts_.useBloom) {
    updatePrunedBit(it->second);
    bumpVersion();
  }
}

bool SubscriptionTable::isPruned(NodeId face, const Name& cd) const {
  const auto it = table_.find(face);
  return it != table_.end() && it->second.pruned.count(cd) > 0;
}

std::vector<NodeId> SubscriptionTable::facesMatching(const Name& cd) const {
  const std::vector<Name> cds{cd};
  std::vector<NodeId> out;
  for (const auto& [face, entry] : table_) {
    if (faceMatches(entry, cds, /*countFalsePositives=*/false)) out.push_back(face);
  }
  return out;
}

std::vector<NodeId> SubscriptionTable::faces() const {
  std::vector<NodeId> out;
  out.reserve(table_.size());
  for (const auto& [face, entry] : table_) {
    (void)entry;
    out.push_back(face);
  }
  return out;
}

std::vector<Name> SubscriptionTable::cdsOnFace(NodeId face) const {
  std::vector<Name> out;
  const auto it = table_.find(face);
  if (it == table_.end()) return out;
  out.reserve(it->second.exact.size());
  for (const auto& [cd, count] : it->second.exact) {
    (void)count;
    out.push_back(cd);
  }
  return out;
}

bool SubscriptionTable::faceSubscribed(NodeId face, const Name& cd) const {
  const auto it = table_.find(face);
  return it != table_.end() && it->second.exact.count(cd) > 0;
}

bool SubscriptionTable::bloomMightContain(NodeId face, const Name& cd) const {
  const auto it = table_.find(face);
  if (it == table_.end()) return false;
  if (!opts_.useBloom) return it->second.exact.count(cd) > 0;
  return it->second.bloom.possiblyContains(cd);
}

std::vector<Name> SubscriptionTable::prunedOnFace(NodeId face) const {
  const auto it = table_.find(face);
  if (it == table_.end()) return {};
  return {it->second.pruned.begin(), it->second.pruned.end()};
}

double SubscriptionTable::predictedFalsePositiveRate(NodeId face) const {
  const auto it = table_.find(face);
  if (it == table_.end()) return 0.0;
  return it->second.bloom.predictedFalsePositiveRate();
}

void SubscriptionTable::corruptBloomForAudit(NodeId face, const Name& cd) {
  const auto it = table_.find(face);
  if (it == table_.end()) return;
  it->second.bloom.remove(cd);
  if (opts_.useBloom) {
    syncPlanes(it->second, cd.hash());
    bumpVersion();
  }
}

std::size_t SubscriptionTable::entryCount() const {
  std::size_t n = 0;
  for (const auto& [face, entry] : table_) {
    (void)face;
    n += entry.exact.size();
  }
  return n;
}

}  // namespace gcopss::copss
