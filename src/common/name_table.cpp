#include "common/name_table.hpp"

#include <cassert>
#include <stdexcept>

namespace gcopss {

NameTable& NameTable::instance() {
  static NameTable table;
  return table;
}

NameTable::NameTable() {
  // Entry 0: the root (empty) name. Hash matches Name().hash().
  ExclusiveLock lk(mu_);
  Entry* chunk = new Entry[kChunkSize];
  chunk[0] = Entry{kInvalidNameId, 0, 0xcbf29ce484222325ULL, ""};
  chunks_[0].store(chunk, std::memory_order_release);
  count_.store(1, std::memory_order_release);
}

NameTable::~NameTable() {
  for (auto& c : chunks_) {
    delete[] c.load(std::memory_order_relaxed);
  }
}

// Interning growth path: runs once per never-before-seen name component
// chain, amortized out of the steady state (forwarding looks up ids that
// already exist). The cold marker doubles as the gcopss-tidy hot-alloc
// barrier for the chunk allocation below.
GCOPSS_COLD NameId NameTable::appendLocked(NameId parent, std::string_view component) {
  const NameId id = count_.load(std::memory_order_relaxed);
  // Always-on (not assert): packet decode interns attacker-controlled names,
  // so exhaustion must be a catchable error in release builds too.
  if ((id >> kChunkShift) >= kMaxChunks) {
    throw std::length_error("NameTable capacity exhausted");
  }
  auto& slot = chunks_[id >> kChunkShift];
  Entry* chunk = slot.load(std::memory_order_relaxed);
  if (!chunk) {
    chunk = new Entry[kChunkSize];
    slot.store(chunk, std::memory_order_release);
  }
  const Entry& p = entry(parent);
  // Incremental hash identical to Name::hash(): fold the component, then "/".
  chunk[id & kChunkMask] =
      Entry{parent, p.depth + 1, fnv1a64("/", fnv1a64(component, p.hash)),
            std::string(component)};
  // Publish: the entry above must be complete before any reader can hold
  // an id that reaches it.
  count_.store(id + 1, std::memory_order_release);
  children_.emplace(ChildKey{parent, std::string(component)}, id);
  return id;
}

NameId NameTable::child(NameId parent, std::string_view component) {
  assert(parent < size());
  {
    SharedLock lk(mu_);
    if (auto it = children_.find(ChildProbe{parent, component});
        it != children_.end()) {
      return it->second;
    }
  }
  ExclusiveLock lk(mu_);
  // Re-check under the exclusive lock: another thread may have interned the
  // same child between the two lock scopes.
  if (auto it = children_.find(ChildProbe{parent, component});
      it != children_.end()) {
    return it->second;
  }
  return appendLocked(parent, component);
}

NameId NameTable::intern(const Name& name) {
  NameId id = kRootNameId;
  for (const std::string& c : name.components()) id = child(id, c);
  return id;
}

NameId NameTable::findChild(NameId parent, std::string_view component) const {
  if (parent == kInvalidNameId) return kInvalidNameId;
  SharedLock lk(mu_);
  const auto it = children_.find(ChildProbe{parent, component});
  return it == children_.end() ? kInvalidNameId : it->second;
}

NameId NameTable::find(const Name& name) const {
  const auto [id, depth] = longestInternedPrefix(name);
  return depth == name.size() ? id : kInvalidNameId;
}

std::pair<NameId, std::uint32_t> NameTable::longestInternedPrefix(const Name& name) const {
  SharedLock lk(mu_);
  NameId id = kRootNameId;
  std::uint32_t depth = 0;
  for (const std::string& c : name.components()) {
    const auto it = children_.find(ChildProbe{id, c});
    if (it == children_.end()) break;
    id = it->second;
    ++depth;
  }
  return {id, depth};
}

NameId NameTable::prefix(NameId id, std::uint32_t n) const {
  assert(n <= depth(id));
  while (entry(id).depth > n) id = entry(id).parent;
  return id;
}

bool NameTable::isPrefixOf(NameId a, NameId b) const {
  const std::uint32_t da = entry(a).depth;
  if (da > entry(b).depth) return false;
  while (entry(b).depth > da) b = entry(b).parent;
  return a == b;
}

Name NameTable::name(NameId id) const {
  std::vector<std::string> comps(depth(id));
  for (std::size_t i = comps.size(); i > 0; id = entry(id).parent) {
    comps[--i] = entry(id).component;
  }
  return Name(std::move(comps));
}

std::string NameTable::toString(NameId id) const { return name(id).toString(); }

void NameTable::resetForTesting() {
  ExclusiveLock lk(mu_);
  children_.clear();
  // Re-publish count 1 first so no (misbehaving) concurrent reader can see a
  // freed chunk through a stale id; chunk 0 and its root entry stay live.
  count_.store(1, std::memory_order_release);
  for (std::size_t i = 1; i < kMaxChunks; ++i) {
    delete[] chunks_[i].load(std::memory_order_relaxed);
    chunks_[i].store(nullptr, std::memory_order_relaxed);
  }
}

}  // namespace gcopss
