#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hash_refcount.hpp"
#include "common/name.hpp"
#include "common/name_table.hpp"
#include "common/rng.hpp"
#include "common/seq_window.hpp"

namespace gcopss::test {
namespace {

TEST(Name, ParseBasics) {
  EXPECT_TRUE(Name::parse("/").empty());
  EXPECT_TRUE(Name::parse("").empty());
  const Name n = Name::parse("/1/2");
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n.at(0), "1");
  EXPECT_EQ(n.at(1), "2");
  EXPECT_EQ(n.toString(), "/1/2");
}

TEST(Name, TrailingSlashIsTheAboveLeaf) {
  // The paper writes the airspace above region 1 as "/1/".
  const Name n = Name::parse("/1/");
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n.at(1), Name::kAboveComponent);
  EXPECT_TRUE(n.isAboveLeaf());
  EXPECT_EQ(n, Name::parse("/1").aboveLeaf());
}

TEST(Name, RootToString) { EXPECT_EQ(Name().toString(), "/"); }

TEST(Name, PrefixRelations) {
  const Name root;
  const Name r1 = Name::parse("/1");
  const Name z12 = Name::parse("/1/2");
  EXPECT_TRUE(root.isPrefixOf(z12));
  EXPECT_TRUE(r1.isPrefixOf(z12));
  EXPECT_TRUE(z12.isPrefixOf(z12));
  EXPECT_FALSE(z12.isPrefixOf(r1));
  EXPECT_TRUE(r1.isStrictPrefixOf(z12));
  EXPECT_FALSE(z12.isStrictPrefixOf(z12));
  EXPECT_FALSE(Name::parse("/2").isPrefixOf(z12));
  // Component-wise, not textual: /1 is not a prefix of /11.
  EXPECT_FALSE(Name::parse("/1").isPrefixOf(Name::parse("/11")));
}

TEST(Name, ParentAndPrefix) {
  const Name n = Name::parse("/a/b/c");
  EXPECT_EQ(n.parent(), Name::parse("/a/b"));
  EXPECT_EQ(n.prefix(0), Name());
  EXPECT_EQ(n.prefix(2), Name::parse("/a/b"));
  EXPECT_EQ(n.prefix(3), n);
}

TEST(Name, AppendRoundTrips) {
  const Name n = Name::parse("/x").append("y").append(Name::parse("/z/w"));
  EXPECT_EQ(n.toString(), "/x/y/z/w");
}

TEST(Name, HashDistinguishesHierarchy) {
  // The hash must separate names that concatenate to the same string.
  EXPECT_NE(Name::parse("/ab/c").hash(), Name::parse("/a/bc").hash());
  EXPECT_NE(Name::parse("/1").hash(), Name::parse("/1/").hash());
  EXPECT_EQ(Name::parse("/1/2").hash(), Name::parse("/1/2").hash());
}

TEST(Name, OrderingIsComponentWise) {
  EXPECT_LT(Name::parse("/1"), Name::parse("/1/1"));
  EXPECT_LT(Name::parse("/1/9"), Name::parse("/2"));
}

// Property sweep: parse(toString(n)) == n over a generated name universe.
class NameRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(NameRoundTrip, ParsePrintParse) {
  const Name n = Name::parse(GetParam());
  EXPECT_EQ(Name::parse(n.toString()), n) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Names, NameRoundTrip,
                         ::testing::Values("/", "/1", "/1/2", "/1/", "/1/2/3/4/5",
                                           "/sports/football", "/_", "/1/_",
                                           "/snapshot/1/2/o/17"));

// ---------------------------------------------------------------------------
// NameTable: the interner must agree with the string-based Name on every
// observable — same id for equal names, same hash, and the same parent /
// prefix relations — over a generated name universe.
// ---------------------------------------------------------------------------

std::vector<Name> nameUniverse() {
  std::vector<Name> out{Name()};
  for (const char* s : {"/1", "/2", "/1/1", "/1/2", "/1/2/3", "/1/", "/1/2/",
                        "/sports", "/sports/football", "/sports/football/fr",
                        "/snapshot/1/2/o/17", "/_", "/1/_"}) {
    out.push_back(Name::parse(s));
  }
  return out;
}

TEST(NameTable, InternRoundTripsThroughParse) {
  auto& table = NameTable::instance();
  for (const Name& n : nameUniverse()) {
    const NameId id = table.intern(n);
    EXPECT_EQ(table.intern(n.toString()), id) << n.toString();
    EXPECT_EQ(table.name(id), n) << n.toString();
    EXPECT_EQ(table.toString(id), n.toString());
    EXPECT_EQ(Name::parse(table.toString(id)), n);
  }
}

TEST(NameTable, InterningIsIdempotentAndInjective) {
  auto& table = NameTable::instance();
  const auto universe = nameUniverse();
  std::unordered_map<NameId, Name> seen;
  for (const Name& n : universe) {
    const NameId id = table.intern(n);
    EXPECT_EQ(table.intern(n), id);
    const auto [it, fresh] = seen.emplace(id, n);
    if (!fresh) {
      EXPECT_EQ(it->second, n) << "two names share id " << id;
    }
  }
}

TEST(NameTable, HashMatchesNameHash) {
  auto& table = NameTable::instance();
  for (const Name& n : nameUniverse()) {
    EXPECT_EQ(table.hash(table.intern(n)), n.hash()) << n.toString();
  }
}

TEST(NameTable, ParentAndDepthMatchStringPrefixes) {
  auto& table = NameTable::instance();
  for (const Name& n : nameUniverse()) {
    const NameId id = table.intern(n);
    EXPECT_EQ(table.depth(id), n.size()) << n.toString();
    if (!n.empty()) {
      EXPECT_EQ(table.parent(id), table.intern(n.prefix(n.size() - 1))) << n.toString();
      EXPECT_EQ(table.component(id), n.at(n.size() - 1));
    }
    for (std::size_t len = 0; len <= n.size(); ++len) {
      EXPECT_EQ(table.prefix(id, len), table.intern(n.prefix(len))) << n.toString();
    }
  }
}

TEST(NameTable, IsPrefixOfAgreesWithName) {
  auto& table = NameTable::instance();
  const auto universe = nameUniverse();
  for (const Name& a : universe) {
    for (const Name& b : universe) {
      EXPECT_EQ(table.isPrefixOf(table.intern(a), table.intern(b)), a.isPrefixOf(b))
          << a.toString() << " vs " << b.toString();
    }
  }
}

// ---------------------------------------------------------------------------
// SeqWindow / SeqWindowMap / HashRefcountMap: randomized equivalence against
// the reference ring + std container implementations they replaced. These
// structures sit on dedup paths whose decisions are pinned by the golden
// chaos trace, so any behavioral drift is a protocol change.
// ---------------------------------------------------------------------------

TEST(SeqWindow, MatchesRingPlusSetReference) {
  for (const std::size_t window : {4ul, 64ul, 1024ul}) {
    SeqWindow win(window);
    std::unordered_set<std::uint64_t> refSeen;
    std::vector<std::uint64_t> refRing(window, 0);
    std::size_t refPos = 0;
    Rng rng(1234 + window);
    for (int i = 0; i < 20000; ++i) {
      // Keyspace ~2x window: plenty of repeats, steady eviction churn.
      const std::uint64_t seq = 1 + static_cast<std::uint64_t>(
                                        rng.uniformInt(0, static_cast<std::int64_t>(window) * 2));
      bool refDup = refSeen.count(seq) > 0;
      if (!refDup) {
        const std::uint64_t evicted = refRing[refPos];
        if (evicted != 0) refSeen.erase(evicted);
        refRing[refPos] = seq;
        refPos = (refPos + 1) % refRing.size();
        refSeen.insert(seq);
      }
      ASSERT_EQ(win.checkAndInsert(seq), refDup) << "window=" << window << " step " << i;
    }
  }
}

TEST(SeqWindowMap, MatchesRingPlusMapReference) {
  // 128 stays within the initial lazy ring; 1024 forces ring growth (and the
  // slot-index rebase that goes with it) mid-churn.
  for (const std::size_t window : {128ul, 1024ul}) {
  SeqWindowMap<std::vector<int>> map(window);
  std::unordered_map<std::uint64_t, std::vector<int>> ref;
  std::vector<std::uint64_t> refRing(window, 0);
  std::size_t refPos = 0;
  Rng rng(77 + window);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t seq =
        1 + static_cast<std::uint64_t>(rng.uniformInt(0, static_cast<std::int64_t>(window) * 3));
    auto it = ref.find(seq);
    if (it == ref.end()) {
      const std::uint64_t evicted = refRing[refPos];
      if (evicted != 0) ref.erase(evicted);
      refRing[refPos] = seq;
      refPos = (refPos + 1) % refRing.size();
      it = ref.emplace(seq, std::vector<int>{}).first;
    }
    auto& val = map.at(seq);
    ASSERT_EQ(val, it->second) << "step " << i;
    if (rng.bernoulli(0.5)) {
      const int face = static_cast<int>(rng.uniformInt(0, 8));
      val.push_back(face);
      it->second.push_back(face);
    }
  }
  }
}

// The slot index keeps a key's low bits in place (`key ^ (key >> 32)` under
// the mask), so dense small seqs never collide. These families are the keys
// that do: nonces that differ only above bit 32, power-of-two strides whose
// low bits are all zero, seqs offset by the snapshot broker's base, and a
// sliding run of recent seqs as a node actually sees them. Each must give
// exactly the reference answers.
using KeyGen = std::function<std::uint64_t(Rng&, int step)>;

// Same base as the snapshot broker's seqs (gcopss/experiment.cpp).
constexpr std::uint64_t kSnapshotSeqBase = 1ULL << 40;

std::vector<std::pair<std::string, KeyGen>> sparseKeyFamilies(std::size_t window) {
  const auto span = static_cast<std::int64_t>(window) * 2;
  std::vector<std::pair<std::string, KeyGen>> families;
  families.emplace_back("nonce", [span](Rng& rng, int) {
    // (node << 32) + n with the same few n on every node.
    const auto node = static_cast<std::uint64_t>(rng.uniformInt(0, 15));
    const auto n = static_cast<std::uint64_t>(rng.uniformInt(1, std::max<std::int64_t>(1, span / 16)));
    return (node << 32) + n;
  });
  for (const int k : {3, 12, 20, 32, 40}) {
    families.emplace_back("stride 2^" + std::to_string(k), [span, k](Rng& rng, int) {
      return static_cast<std::uint64_t>(rng.uniformInt(1, span)) << k;
    });
  }
  families.emplace_back("snapshot base", [span](Rng& rng, int) {
    return kSnapshotSeqBase + static_cast<std::uint64_t>(rng.uniformInt(0, span));
  });
  families.emplace_back("sliding run", [window](Rng& rng, int step) {
    const std::int64_t back = rng.uniformInt(0, static_cast<std::int64_t>(window));
    return static_cast<std::uint64_t>(1 + std::max<std::int64_t>(0, step - back));
  });
  const auto parts = families;
  families.emplace_back("mixed", [parts](Rng& rng, int step) {
    const auto pick = rng.uniformInt(0, static_cast<std::int64_t>(parts.size()) - 1);
    return parts[static_cast<std::size_t>(pick)].second(rng, step);
  });
  return families;
}

TEST(SeqWindow, MatchesRingPlusSetReferenceOnSparseKeys) {
  for (const std::size_t window : {4ul, 64ul, 1024ul}) {
    for (const auto& [family, next] : sparseKeyFamilies(window)) {
      SeqWindow win(window);
      std::unordered_set<std::uint64_t> refSeen;
      std::vector<std::uint64_t> refRing(window, 0);
      std::size_t refPos = 0;
      Rng rng(4321 + window);
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t seq = next(rng, i);
        const bool refDup = refSeen.count(seq) > 0;
        if (!refDup) {
          const std::uint64_t evicted = refRing[refPos];
          if (evicted != 0) refSeen.erase(evicted);
          refRing[refPos] = seq;
          refPos = (refPos + 1) % refRing.size();
          refSeen.insert(seq);
        }
        ASSERT_EQ(win.checkAndInsert(seq), refDup)
            << family << " window=" << window << " step " << i;
      }
    }
  }
}

TEST(SeqWindowMap, MatchesRingPlusMapReferenceOnSparseKeys) {
  for (const std::size_t window : {128ul, 1024ul}) {
    for (const auto& [family, next] : sparseKeyFamilies(window)) {
      SeqWindowMap<std::vector<int>> map(window);
      std::unordered_map<std::uint64_t, std::vector<int>> ref;
      std::vector<std::uint64_t> refRing(window, 0);
      std::size_t refPos = 0;
      Rng rng(99 + window);
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t seq = next(rng, i);
        auto it = ref.find(seq);
        if (it == ref.end()) {
          const std::uint64_t evicted = refRing[refPos];
          if (evicted != 0) ref.erase(evicted);
          refRing[refPos] = seq;
          refPos = (refPos + 1) % refRing.size();
          it = ref.emplace(seq, std::vector<int>{}).first;
        }
        auto& val = map.at(seq);
        ASSERT_EQ(val, it->second) << family << " window=" << window << " step " << i;
        if (rng.bernoulli(0.5)) {
          const int face = static_cast<int>(rng.uniformInt(0, 8));
          val.push_back(face);
          it->second.push_back(face);
        }
      }
    }
  }
}

TEST(HashRefcountMap, MatchesUnorderedMapReference) {
  HashRefcountMap map;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  Rng rng(4242);
  for (int i = 0; i < 20000; ++i) {
    // Include key 0 in the space: real name hashes can be any value.
    const auto key = static_cast<std::uint64_t>(rng.uniformInt(0, 300));
    switch (rng.uniformInt(0, 2)) {
      case 0:
        ASSERT_EQ(map.increment(key), ++ref[key]);
        break;
      case 1: {
        std::uint32_t expected = 0;
        const auto it = ref.find(key);
        if (it != ref.end()) {
          expected = --it->second;
          if (it->second == 0) ref.erase(it);
        }
        ASSERT_EQ(map.decrement(key), expected);
        break;
      }
      default:
        ASSERT_EQ(map.contains(key), ref.count(key) > 0);
        break;
    }
    ASSERT_EQ(map.empty(), ref.empty());
  }
}

}  // namespace
}  // namespace gcopss::test
