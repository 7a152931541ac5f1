#ifndef SES_GRAPH_KHOP_H_
#define SES_GRAPH_KHOP_H_

#include <cstdint>
#include <vector>

#include "autograd/sparse_ops.h"
#include "graph/graph.h"

namespace ses::graph {

/// The k-hop relational structure A^(k) of the paper (Table 2): for each node
/// i, the set P_r(i) of nodes within k hops (i excluded), stored once as a
/// CSR neighbor table. Its flattened entries line up with the paper's Idx
/// matrix (Eq. 5): entry e is the pair center i -> k-hop neighbor j.
class KHopAdjacency {
 public:
  /// BFS expansion of every node's k-hop ball. `max_neighbors`, when > 0,
  /// caps |P_r(i)| (closest-first) to bound N_k on dense graphs. It bounds
  /// the build's cost as well: each node's BFS stops as soon as its ball
  /// holds max_neighbors nodes, so the full k-hop balls are never walked.
  KHopAdjacency(const Graph& g, int64_t k, int64_t max_neighbors = 0);

  int64_t k() const { return k_; }
  int64_t num_nodes() const { return num_nodes_; }
  /// Total number of (i, j) k-hop pairs == N_k in the paper.
  int64_t num_pairs() const { return static_cast<int64_t>(nbr_idx_.size()); }

  /// Sorted k-hop neighbor list of node `i` (P_r(i)).
  std::span<const int64_t> Neighbors(int64_t i) const;

  /// True if j is within k hops of i.
  bool Contains(int64_t i, int64_t j) const;

  /// Directed pair list (i -> j, one entry per k-hop pair). Entry order
  /// matches the flattened CSR: pairs of node 0 first, then node 1, ...
  /// This is the Idx matrix the structure mask M_s is indexed by. Every call
  /// builds a fresh list (2 · N_k indices, with its own memoized kernel
  /// plans), so a caller that needs it more than once builds it once and
  /// keeps it for as long as it needs it.
  autograd::EdgeListPtr PairEdges() const;

  /// Offset of node i's first pair in the flattened pair list.
  int64_t PairOffset(int64_t i) const {
    return nbr_ptr_[static_cast<size_t>(i)];
  }

 private:
  int64_t k_ = 0;
  int64_t num_nodes_ = 0;
  std::vector<int64_t> nbr_ptr_;
  std::vector<int64_t> nbr_idx_;
};

/// Indices 0..n-1 ordered so the k highest `scores[offset + i]` come first
/// (descending), written into `out`. `scratch` is the full-length index
/// buffer the partial sort runs over; batched callers (ExplainMany, the
/// serving scheduler) pass the same scratch for every node in an index batch
/// so per-request selection does no allocation after the largest node.
/// Returns the number of selected entries, min(k, n).
int64_t TopKByScore(const float* scores, int64_t offset, int64_t n, int64_t k,
                    std::vector<int64_t>* scratch, std::vector<int64_t>* out);

}  // namespace ses::graph

#endif  // SES_GRAPH_KHOP_H_
