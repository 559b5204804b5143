#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/name.hpp"
#include "common/name_table.hpp"
#include "net/packet.hpp"

namespace gcopss::ndn {

// Forwarding Information Base: interned name prefixes mapped to outgoing face
// sets, with longest-prefix-match lookup.
//
// The store is keyed by NameId (DESIGN.md §4e): one contiguous array per
// depth of (interned prefix id, face set), sorted by id, holding exactly the
// prefixes with at least one registered face. The NameTable already caches
// every name's parent and depth, so a lookup walks the parent chain and
// binary-searches the level array at each depth — contiguous words instead
// of a hash-map probe per level, and depths with no registered prefix are
// skipped without touching memory.
class Fib {
 public:
  void insert(const Name& prefix, NodeId face);
  // Returns true if the (prefix, face) pair existed.
  bool remove(const Name& prefix, NodeId face);
  // Remove every face registered for exactly this prefix.
  void removePrefix(const Name& prefix);

  // Faces of the longest prefix of `name` that has at least one face.
  // Empty vector if no prefix matches.
  std::vector<NodeId> lpm(const Name& name) const;

  // Data-plane LPM over an interned name: walk `id`'s parent chain (deepest
  // first) and return the face set of the first prefix registered here, in
  // ascending face order; nullptr if no prefix matches. The pointer is valid
  // until the next mutation.
  const std::set<NodeId>* lpmFaces(NameId id) const;

  // All (prefix, faces) entries whose prefix intersects `name`: the prefix is
  // an ancestor-or-equal of `name` (emitted shallowest first), or lies in the
  // subtree under `name` (emitted after them, in Name order).
  // COPSS uses this to find every RP direction a Subscribe must propagate to
  // (a subscription to /1 must reach the RPs serving /1/1, /1/2, ...).
  std::vector<std::pair<Name, std::vector<NodeId>>> intersecting(const Name& name) const;

  // Every (prefix, faces) entry, sorted by prefix. Audit / introspection path
  // (the invariant checker enumerates all routed prefixes to build its
  // loop-freedom probe set); not used while forwarding.
  std::vector<std::pair<Name, std::vector<NodeId>>> entries() const;

  std::size_t entryCount() const { return entries_; }

 private:
  struct Entry {
    NameId id;
    std::set<NodeId> faces;  // never empty
  };
  using Level = std::vector<Entry>;

  static Level::const_iterator lowerBound(const Level& level, NameId id);
  // The entry for `id` at `depth`, or nullptr if none is registered.
  const Entry* at(std::uint32_t depth, NameId id) const;
  Entry* at(std::uint32_t depth, NameId id);
  void erase(std::uint32_t depth, NameId id);

  std::vector<Level> byDepth_;
  std::size_t entries_ = 0;  // number of (prefix,face) pairs
};

}  // namespace gcopss::ndn
