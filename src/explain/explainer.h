#ifndef SES_EXPLAIN_EXPLAINER_H_
#define SES_EXPLAIN_EXPLAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "graph/graph.h"
#include "models/encoders.h"

namespace ses::explain {

/// Uniform interface over the post-hoc explanation baselines so the Table 4
/// (explanation AUC), Table 5 (Fidelity+) and Table 6 (timing) harnesses can
/// sweep them generically.
///
/// Representation conventions shared with SES:
///  - edge importance: one float per undirected edge of ds.graph.edges();
///  - feature importance: one float per CSR nonzero of ds.features.
class Explainer {
 public:
  virtual ~Explainer() = default;
  virtual std::string name() const = 0;

  virtual bool SupportsEdgeExplanations() const { return true; }
  virtual bool SupportsFeatureExplanations() const { return false; }

  /// Importance per undirected edge. `nodes` selects which nodes the
  /// per-node explainers process (empty = every node); the global explainers
  /// (GRAD, ATT, PGExplainer) ignore it. This is the knob the timing
  /// benchmark and the case studies turn.
  virtual std::vector<float> ExplainEdges(const data::Dataset& ds,
                                          const std::vector<int64_t>& nodes = {}) = 0;

  /// Importance per feature nonzero (CSR order of ds.features).
  virtual std::vector<float> ExplainFeaturesNnz(
      const data::Dataset& ds, const std::vector<int64_t>& nodes = {});
};

/// Shared helper for per-node explainers: runs the trained encoder on a
/// node-induced subgraph with optional differentiable edge / feature masks
/// and returns log-probabilities for the subgraph nodes.
autograd::Variable SubgraphLogProbs(
    const models::Encoder& encoder, const autograd::EdgeListPtr& sub_edges,
    const autograd::Variable& edge_mask, const autograd::Variable& nnz_mask,
    const std::shared_ptr<const tensor::SparseMatrix>& sub_features);

/// Nodes to explain: motif nodes first (they carry ground truth), then the
/// rest; truncated to `max_nodes` when positive.
std::vector<int64_t> NodesToExplain(const data::Dataset& ds, int64_t max_nodes);

}  // namespace ses::explain

#endif  // SES_EXPLAIN_EXPLAINER_H_
