#pragma once

// Reference model of the Subscription Table's data-plane match: per-face
// scalar Bloom probes, the paper's per-face <Face, BloomFilter<CD>> check
// written the obvious way. It is an independent shadow of
// copss::SubscriptionTable — its own CountingBloomFilter, exact refcounts and
// prune set per face — fed the same subscribe / unsubscribe / prune stream,
// and it predicts the table's match set, output order and
// bloomFalsePositives() delta. tests/test_batched_match.cpp pits the
// production bit-plane sweep and match cache against it.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/bloom.hpp"
#include "common/name.hpp"
#include "copss/st.hpp"

namespace gcopss::test {

class StReference {
 public:
  explicit StReference(copss::SubscriptionTable::Options opts = {}) : opts_(opts) {}

  void subscribe(NodeId face, const Name& cd) {
    Face& f = faces_.try_emplace(face, opts_).first->second;
    if (++f.exact[cd] == 1) f.bloom.add(cd);
    // A fresh subscription clears prunes of this CD and of anything below it.
    std::erase_if(f.pruned, [&cd](const Name& p) { return cd.isPrefixOf(p); });
  }

  void unsubscribe(NodeId face, const Name& cd) {
    const auto it = faces_.find(face);
    if (it == faces_.end()) return;
    Face& f = it->second;
    const auto cit = f.exact.find(cd);
    if (cit == f.exact.end()) return;
    if (--cit->second == 0) {
      f.exact.erase(cit);
      f.bloom.remove(cd);
    }
    if (f.exact.empty()) faces_.erase(it);
  }

  void prune(NodeId face, const Name& cd) {
    const auto it = faces_.find(face);
    if (it != faces_.end()) it->second.pruned.insert(cd);
  }

  // Faces, in ascending order, that receive a multicast carrying `cds`
  // (whose every prefix level hashes to `prefixHashes`) arriving on
  // `excludeFace`. Adds the Bloom false positives it sees to falsePositives().
  std::vector<NodeId> match(const std::vector<Name>& cds,
                            const std::vector<std::uint64_t>& prefixHashes,
                            NodeId excludeFace) {
    std::vector<NodeId> out;
    for (const auto& [face, f] : faces_) {
      if (face == excludeFace) continue;
      const bool hit = f.pruned.empty() ? matchesHashes(f, prefixHashes) : matchesNames(f, cds);
      if (hit) out.push_back(face);
    }
    return out;
  }

  std::uint64_t falsePositives() const { return falsePositives_; }

 private:
  struct Face {
    CountingBloomFilter bloom;
    std::map<Name, std::uint32_t> exact;  // cd -> refcount
    std::set<Name> pruned;

    explicit Face(const copss::SubscriptionTable::Options& o)
        : bloom(o.bloomBits, o.bloomHashes) {}
  };

  static bool hasExactHash(const Face& f, std::uint64_t h) {
    return std::any_of(f.exact.begin(), f.exact.end(),
                       [h](const auto& kv) { return kv.first.hash() == h; });
  }

  // Unpruned face: the first prefix hash the filter passes decides, and
  // counts as a false positive if no exact subscription has that hash.
  bool matchesHashes(const Face& f, const std::vector<std::uint64_t>& prefixHashes) {
    for (std::uint64_t h : prefixHashes) {
      if (!opts_.useBloom) {
        if (hasExactHash(f, h)) return true;
      } else if (f.bloom.possiblyContains(h)) {
        if (!hasExactHash(f, h)) ++falsePositives_;
        return true;
      }
    }
    return false;
  }

  // Face with prunes: walk every prefix of every CD not pruned on it.
  bool matchesNames(const Face& f, const std::vector<Name>& cds) {
    for (const Name& cd : cds) {
      if (f.pruned.count(cd)) continue;
      for (std::size_t len = 0; len <= cd.size(); ++len) {
        const Name p = cd.prefix(len);
        if (!opts_.useBloom) {
          if (f.exact.count(p)) return true;
        } else if (f.bloom.possiblyContains(p)) {
          if (!f.exact.count(p)) ++falsePositives_;
          return true;
        }
      }
    }
    return false;
  }

  copss::SubscriptionTable::Options opts_;
  std::map<NodeId, Face> faces_;
  std::uint64_t falsePositives_ = 0;
};

}  // namespace gcopss::test
