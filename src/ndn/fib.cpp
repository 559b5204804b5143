#include "ndn/fib.hpp"

#include <algorithm>

#include "common/thread_annotations.hpp"

namespace gcopss::ndn {

Fib::Level::const_iterator Fib::lowerBound(const Level& level, NameId id) {
  return std::lower_bound(level.begin(), level.end(), id,
                          [](const Entry& e, NameId key) { return e.id < key; });
}

const Fib::Entry* Fib::at(std::uint32_t depth, NameId id) const {
  if (id == kInvalidNameId || depth >= byDepth_.size()) return nullptr;
  const Level& level = byDepth_[depth];
  const auto it = lowerBound(level, id);
  return it != level.end() && it->id == id ? &*it : nullptr;
}

Fib::Entry* Fib::at(std::uint32_t depth, NameId id) {
  return const_cast<Entry*>(static_cast<const Fib*>(this)->at(depth, id));
}

void Fib::erase(std::uint32_t depth, NameId id) {
  Level& level = byDepth_[depth];
  level.erase(level.begin() + (lowerBound(level, id) - level.cbegin()));
}

// Control-plane mutation (RP assignment, Subscribe propagation targets):
// never on the per-packet forwarding path, so level growth is fine here.
// The cold marker is also the gcopss-tidy hot-alloc barrier.
GCOPSS_COLD void Fib::insert(const Name& prefix, NodeId face) {
  const NameId id = NameTable::instance().intern(prefix);
  const auto depth = static_cast<std::uint32_t>(prefix.size());
  if (byDepth_.size() <= depth) byDepth_.resize(depth + 1);
  Level& level = byDepth_[depth];
  auto it = level.begin() + (lowerBound(level, id) - level.cbegin());
  if (it == level.end() || it->id != id) it = level.insert(it, Entry{id, {}});
  if (it->faces.insert(face).second) ++entries_;
}

bool Fib::remove(const Name& prefix, NodeId face) {
  const auto depth = static_cast<std::uint32_t>(prefix.size());
  const NameId id = NameTable::instance().find(prefix);
  Entry* e = at(depth, id);
  if (!e || e->faces.erase(face) == 0) return false;
  --entries_;
  if (e->faces.empty()) erase(depth, id);
  return true;
}

void Fib::removePrefix(const Name& prefix) {
  const auto depth = static_cast<std::uint32_t>(prefix.size());
  const NameId id = NameTable::instance().find(prefix);
  const Entry* e = at(depth, id);
  if (!e) return;
  entries_ -= e->faces.size();
  erase(depth, id);
}

// Every registered prefix is interned, so none of `name`'s registered
// prefixes lies below its deepest interned one.
std::vector<NodeId> Fib::lpm(const Name& name) const {
  const std::set<NodeId>* faces =
      lpmFaces(NameTable::instance().longestInternedPrefix(name).first);
  if (!faces) return {};
  return {faces->begin(), faces->end()};
}

GCOPSS_HOT const std::set<NodeId>* Fib::lpmFaces(NameId id) const {
  if (byDepth_.empty()) return nullptr;
  const auto& names = NameTable::instance();
  std::uint32_t depth = names.depth(id);
  NameId cur = id;
  // Nothing is registered deeper than byDepth_.size()-1: hop straight up to
  // the deepest level that can match before touching any level array.
  while (depth >= byDepth_.size()) {
    cur = names.parent(cur);
    --depth;
  }
  for (;;) {
    const Level& level = byDepth_[depth];
    if (!level.empty()) {
      const auto it = lowerBound(level, cur);
      if (it != level.end() && it->id == cur) return &it->faces;
    }
    if (depth == 0) return nullptr;
    cur = names.parent(cur);
    --depth;
  }
}

std::vector<std::pair<Name, std::vector<NodeId>>> Fib::intersecting(const Name& name) const {
  std::vector<std::pair<Name, std::vector<NodeId>>> out;
  const auto& names = NameTable::instance();
  const auto [deepest, interned] = names.longestInternedPrefix(name);
  // Ancestors (and self), shallowest first.
  for (std::uint32_t d = 0; d <= interned; ++d) {
    if (const Entry* e = at(d, names.prefix(deepest, d))) {
      out.emplace_back(name.prefix(d), std::vector<NodeId>(e->faces.begin(), e->faces.end()));
    }
  }
  // A registered descendant would have interned `name` itself.
  if (interned < name.size()) return out;
  // Descendants: everything strictly below `name`, in Name order — the
  // output order is a pure function of the FIB's contents, never of NameId
  // assignment order (it reaches Subscribe propagation order upstream).
  const std::size_t ancestors = out.size();
  for (std::size_t d = name.size() + 1; d < byDepth_.size(); ++d) {
    for (const Entry& e : byDepth_[d]) {
      if (names.isPrefixOf(deepest, e.id)) {
        out.emplace_back(names.name(e.id), std::vector<NodeId>(e.faces.begin(), e.faces.end()));
      }
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(ancestors), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<std::pair<Name, std::vector<NodeId>>> Fib::entries() const {
  std::vector<std::pair<Name, std::vector<NodeId>>> out;
  const auto& names = NameTable::instance();
  for (const Level& level : byDepth_) {
    for (const Entry& e : level) {
      out.emplace_back(names.name(e.id), std::vector<NodeId>(e.faces.begin(), e.faces.end()));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace gcopss::ndn
