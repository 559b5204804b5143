#include "net/partition.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace gcopss {
namespace {

// Fair share plus this slack is the most nodes one shard may hold.
constexpr double kBalanceSlack = 0.05;

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    largest_ = std::max(largest_, size_[a]);
  }

  std::size_t size(std::size_t root) const { return size_[root]; }
  std::size_t largest() const { return largest_; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
  std::size_t largest_ = 1;
};

struct Packing {
  std::vector<std::size_t> shardOf;
  std::size_t maxLoad = 0;
};

// Largest cluster first onto the least-loaded shard. Ties break on the
// cluster's smallest NodeId and the lowest shard index, so the result
// depends on nothing but the clusters.
Packing packLargestFirst(UnionFind& uf, std::size_t nodes, std::size_t shards) {
  struct Cluster {
    std::size_t root;
    std::size_t size;
    std::size_t firstNode;
  };
  std::vector<Cluster> clusters;
  std::vector<bool> seen(nodes, false);
  for (std::size_t v = 0; v < nodes; ++v) {  // ascending: firstNode = min id
    const std::size_t r = uf.find(v);
    if (!seen[r]) {
      seen[r] = true;
      clusters.push_back({r, uf.size(r), v});
    }
  }
  std::sort(clusters.begin(), clusters.end(), [](const Cluster& a, const Cluster& b) {
    return a.size != b.size ? a.size > b.size : a.firstNode < b.firstNode;
  });
  std::vector<std::size_t> load(shards, 0);
  std::vector<std::size_t> shardOfRoot(nodes, 0);
  for (const Cluster& c : clusters) {
    const auto s = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[s] += c.size;
    shardOfRoot[c.root] = s;
  }
  Packing p;
  p.shardOf.resize(nodes);
  for (std::size_t v = 0; v < nodes; ++v) p.shardOf[v] = shardOfRoot[uf.find(v)];
  p.maxLoad = *std::max_element(load.begin(), load.end());
  return p;
}

}  // namespace

ShardPartition partitionShards(const Topology& topo, std::size_t shards) {
  if (shards == 0) throw std::invalid_argument("partitionShards: need at least one shard");
  const std::size_t n = topo.nodeCount();
  const auto& links = topo.links();
  ShardPartition out;
  if (n == 0) return out;

  std::vector<std::size_t> byDelay(links.size());
  std::iota(byDelay.begin(), byDelay.end(), std::size_t{0});
  std::stable_sort(byDelay.begin(), byDelay.end(), [&links](std::size_t a, std::size_t b) {
    return links[a].delay < links[b].delay;
  });

  const std::size_t fairCeil = (n + shards - 1) / shards;
  const auto slackCap = static_cast<std::size_t>(static_cast<double>(n) /
                                                 static_cast<double>(shards) *
                                                 (1.0 + kBalanceSlack));
  const std::size_t allowed = std::max(fairCeil, slackCap);

  UnionFind uf(n);
  Packing best = packLargestFirst(uf, n, shards);  // contract nothing
  for (std::size_t i = 0; i < byDelay.size();) {
    const SimTime d = links[byDelay[i]].delay;
    for (; i < byDelay.size() && links[byDelay[i]].delay == d; ++i) {
      const Topology::Link& l = links[byDelay[i]];
      uf.unite(static_cast<std::size_t>(l.a), static_cast<std::size_t>(l.b));
    }
    if (uf.largest() > allowed) break;  // clusters only grow from here
    Packing p = packLargestFirst(uf, n, shards);
    if (p.maxLoad <= allowed) best = std::move(p);
  }

  out.shardOf = std::move(best.shardOf);
  for (const Topology::Link& l : links) {
    if (out.shardOf[static_cast<std::size_t>(l.a)] != out.shardOf[static_cast<std::size_t>(l.b)]) {
      out.lookahead = std::min(out.lookahead, l.delay);
    }
  }
  return out;
}

}  // namespace gcopss
