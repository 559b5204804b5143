#pragma once

#include <cstdint>
#include <vector>

#include "common/seq_window.hpp"
#include "ndn/packets.hpp"
#include "net/packet.hpp"

namespace gcopss::copss {

// A router's per-seq record of the faces it has already served a
// publication on. Transient overlapping trees (during migration, or coarse
// subscriptions spanning multiple RPs) can bring a seq to a router more than
// once; each face is served exactly once, and an arrival face counts as
// served (Section III-C, IV-B).
//
// The record is a bit row per seq over a stable per-router face index: bit 0
// is the local face, the rest are assigned cold, first from the neighbours
// the router is built with, then in order of first sight for any face the
// topology gained later. A row is one 64-bit word until the index passes 64
// faces, then every row widens by a word. Rows live in a SeqWindowTable next
// to their seq, so the steady-state fan-out reads one cache line per
// arrival and allocates nothing.
class ServedFaces {
 public:
  ServedFaces(std::size_t window, const std::vector<NodeId>& neighbours);

  // Apply the fan-out rules to one arrival of publication `seq` from
  // `arrival` (kInvalidNode for a local publish or an RP decapsulation) and
  // filter the ST match `faces` in place, keeping their order, to the faces
  // to serve now. A face already served for `seq` is dropped — unless the
  // publication is a retransmission and the face is not local: a
  // retransmission re-floods the tree, because the record cannot tell
  // "served" from "sent but lost downstream", so end hosts do the final
  // exact dedup. Local delivery has no link to lose on, so it stays
  // suppressed exactly. Returns the number of faces dropped.
  std::size_t serve(std::uint64_t seq, NodeId arrival, bool retx, std::vector<NodeId>& faces);

  // Forget every record (the face index stays).
  void clear() { sent_.clear(); }

  // Faces indexed so far, the local face included.
  std::size_t indexedFaces() const { return faces_; }

 private:
  // Assign `face` a bit if it has none yet; returns its bit.
  std::size_t indexFace(NodeId face);

  // Index into bits_, kLocalFace first (widened, so no NodeId overflows).
  static std::size_t slotOf(NodeId face) {
    return static_cast<std::size_t>(std::int64_t{face} - ndn::kLocalFace);
  }
  // slotOf(face) -> bit; kNoBit where none is assigned yet.
  static constexpr std::uint32_t kNoBit = ~std::uint32_t{0};
  std::vector<std::uint32_t> bits_;
  std::size_t faces_ = 0;
  SeqWindowTable sent_;
};

}  // namespace gcopss::copss
