#include "graph/khop.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/trace.h"
#include "util/logging.h"

namespace ses::graph {

KHopAdjacency::KHopAdjacency(const Graph& g, int64_t k, int64_t max_neighbors)
    : k_(k), num_nodes_(g.num_nodes()) {
  SES_TRACE_SPAN("graph/khop");
  SES_CHECK(k >= 1);
  // BFS discovers nodes closest-first, so the capped ball is the prefix of
  // the full ball's discovery order: the walk stops as soon as it has
  // max_neighbors nodes, and nothing past the cap is ever visited.
  const size_t cap = max_neighbors > 0 ? static_cast<size_t>(max_neighbors)
                                       : std::numeric_limits<size_t>::max();
  nbr_ptr_.assign(static_cast<size_t>(num_nodes_) + 1, 0);
  std::vector<std::vector<int64_t>> balls(static_cast<size_t>(num_nodes_));

#pragma omp parallel
  {
    std::vector<int64_t> dist(static_cast<size_t>(num_nodes_), -1);
    std::vector<int64_t> order;  // BFS queue == discovery order, i first
#pragma omp for schedule(dynamic, 64)
    for (int64_t i = 0; i < num_nodes_; ++i) {
      order.assign(1, i);
      dist[static_cast<size_t>(i)] = 0;
      for (size_t head = 0; head < order.size() && order.size() - 1 < cap;
           ++head) {
        const int64_t u = order[head];
        const int64_t du = dist[static_cast<size_t>(u)];
        if (du >= k) break;  // every later node is at least as far
        for (int64_t v : g.Neighbors(u)) {
          if (dist[static_cast<size_t>(v)] >= 0) continue;
          dist[static_cast<size_t>(v)] = du + 1;
          order.push_back(v);
          if (order.size() - 1 == cap) break;
        }
      }
      std::vector<int64_t>& ball = balls[static_cast<size_t>(i)];
      ball.assign(order.begin() + 1, order.end());
      std::sort(ball.begin(), ball.end());
      for (int64_t v : order) dist[static_cast<size_t>(v)] = -1;
    }
  }

  for (int64_t i = 0; i < num_nodes_; ++i)
    nbr_ptr_[static_cast<size_t>(i) + 1] =
        nbr_ptr_[static_cast<size_t>(i)] +
        static_cast<int64_t>(balls[static_cast<size_t>(i)].size());
  nbr_idx_.reserve(static_cast<size_t>(nbr_ptr_.back()));
  for (const auto& ball : balls)
    nbr_idx_.insert(nbr_idx_.end(), ball.begin(), ball.end());
}

autograd::EdgeListPtr KHopAdjacency::PairEdges() const {
  auto edges = std::make_shared<autograd::EdgeList>();
  edges->num_nodes = num_nodes_;
  edges->src.reserve(nbr_idx_.size());
  for (int64_t i = 0; i < num_nodes_; ++i)
    edges->src.insert(edges->src.end(),
                      static_cast<size_t>(nbr_ptr_[static_cast<size_t>(i) + 1] -
                                          nbr_ptr_[static_cast<size_t>(i)]),
                      i);
  edges->dst = nbr_idx_;
  return edges;
}

std::span<const int64_t> KHopAdjacency::Neighbors(int64_t i) const {
  SES_CHECK(i >= 0 && i < num_nodes_);
  return {nbr_idx_.data() + nbr_ptr_[static_cast<size_t>(i)],
          static_cast<size_t>(nbr_ptr_[static_cast<size_t>(i) + 1] -
                              nbr_ptr_[static_cast<size_t>(i)])};
}

bool KHopAdjacency::Contains(int64_t i, int64_t j) const {
  auto nbrs = Neighbors(i);
  return std::binary_search(nbrs.begin(), nbrs.end(), j);
}

int64_t TopKByScore(const float* scores, int64_t offset, int64_t n, int64_t k,
                    std::vector<int64_t>* scratch, std::vector<int64_t>* out) {
  SES_CHECK(scratch != nullptr && out != nullptr);
  const int64_t take = std::min<int64_t>(k, n);
  out->clear();
  if (take <= 0) return 0;
  if (static_cast<int64_t>(scratch->size()) < n)
    scratch->resize(static_cast<size_t>(n));
  std::iota(scratch->begin(), scratch->begin() + n, int64_t{0});
  std::partial_sort(scratch->begin(), scratch->begin() + take,
                    scratch->begin() + n,
                    [scores, offset](int64_t a, int64_t b) {
                      return scores[offset + a] > scores[offset + b];
                    });
  out->assign(scratch->begin(), scratch->begin() + take);
  return take;
}

}  // namespace ses::graph
