#include "copss/served_faces.hpp"

#include <stdexcept>
#include <string>

#include "common/thread_annotations.hpp"

namespace gcopss::copss {

ServedFaces::ServedFaces(std::size_t window, const std::vector<NodeId>& neighbours)
    : sent_(window, 1) {
  indexFace(ndn::kLocalFace);
  for (NodeId n : neighbours) indexFace(n);
}

GCOPSS_COLD std::size_t ServedFaces::indexFace(NodeId face) {
  if (face < ndn::kLocalFace) {
    throw std::invalid_argument("ServedFaces: no such face " + std::to_string(face));
  }
  const std::size_t at = slotOf(face);
  if (at >= bits_.size()) bits_.resize(at + 1, kNoBit);
  if (bits_[at] == kNoBit) {
    bits_[at] = static_cast<std::uint32_t>(faces_++);
    const std::size_t words = (faces_ + 63) / 64;
    if (words > sent_.payloadWords()) sent_.widen(words);
  }
  return bits_[at];
}

GCOPSS_HOT std::size_t ServedFaces::serve(std::uint64_t seq, NodeId arrival, bool retx,
                                          std::vector<NodeId>& faces) {
  std::uint64_t* row = sent_.findOrInsert(seq).payload;
  auto bit = [&](NodeId face) -> std::size_t {
    const std::size_t at = slotOf(face);
    if (at < bits_.size() && bits_[at] != kNoBit) return bits_[at];
    const std::size_t b = indexFace(face);
    row = sent_.findOrInsert(seq).payload;  // indexing may have widened every row
    return b;
  };
  if (arrival != kInvalidNode) {
    const std::size_t b = bit(arrival);
    row[b >> 6] |= std::uint64_t{1} << (b & 63);
  }
  std::size_t kept = 0;
  std::size_t dropped = 0;
  for (NodeId face : faces) {
    const std::size_t b = bit(face);
    std::uint64_t& word = row[b >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (b & 63);
    if ((word & mask) != 0) {
      if (!retx || face == ndn::kLocalFace) {
        ++dropped;
        continue;
      }
    } else {
      word |= mask;
    }
    faces[kept++] = face;
  }
  faces.resize(kept);
  return dropped;
}

}  // namespace gcopss::copss
