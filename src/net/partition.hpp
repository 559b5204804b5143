#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "net/topology.hpp"

namespace gcopss {

// Node -> shard mapping for the parallel engine (Network::enableParallel):
// a pure function of the topology and the shard count.
//
// Rule: contract every link with delay <= d into one cluster (union-find),
// pack the clusters onto the shards largest-first, and keep the largest d
// whose packing stays balanced — no shard holds more than 5 % over its fair
// share of nodes. d sweeps the distinct link delays upward from "contract
// nothing" and stops once one cluster alone outgrows that bound. Only links
// longer than d can be cut, so the lookahead, the minimum delay over the
// links the packing actually cuts, is larger than d. On the Fig. 6 backbone
// the 1 ms host-edge links are never cut.
struct ShardPartition {
  std::vector<std::size_t> shardOf;  // indexed by NodeId
  // Minimum delay over cut links; INT64_MAX when no link is cut.
  SimTime lookahead = INT64_MAX;
};

ShardPartition partitionShards(const Topology& topo, std::size_t shards);

}  // namespace gcopss
