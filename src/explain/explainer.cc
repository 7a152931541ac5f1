#include "explain/explainer.h"

#include "autograd/ops.h"
#include "util/logging.h"

namespace ses::explain {

namespace ag = ses::autograd;

std::vector<float> Explainer::ExplainFeaturesNnz(
    const data::Dataset&, const std::vector<int64_t>&) {
  SES_CHECK(false && "this explainer does not produce feature explanations");
  return {};
}

ag::Variable SubgraphLogProbs(
    const models::Encoder& encoder, const ag::EdgeListPtr& sub_edges,
    const ag::Variable& edge_mask, const ag::Variable& nnz_mask,
    const std::shared_ptr<const tensor::SparseMatrix>& sub_features) {
  util::Rng rng(0);
  nn::FeatureInput input = nn::FeatureInput::Sparse(sub_features, nnz_mask);
  auto out = encoder.Forward(input, sub_edges, edge_mask, 0.0f,
                             /*training=*/false, &rng);
  return ag::LogSoftmaxRows(out.logits);
}

std::vector<int64_t> NodesToExplain(const data::Dataset& ds,
                                    int64_t max_nodes) {
  std::vector<int64_t> nodes;
  nodes.reserve(static_cast<size_t>(ds.num_nodes()));
  if (!ds.in_motif.empty()) {
    for (int64_t i = 0; i < ds.num_nodes(); ++i)
      if (ds.in_motif[static_cast<size_t>(i)]) nodes.push_back(i);
    for (int64_t i = 0; i < ds.num_nodes(); ++i)
      if (!ds.in_motif[static_cast<size_t>(i)]) nodes.push_back(i);
  } else {
    for (int64_t i = 0; i < ds.num_nodes(); ++i) nodes.push_back(i);
  }
  if (max_nodes > 0 && static_cast<int64_t>(nodes.size()) > max_nodes)
    nodes.resize(static_cast<size_t>(max_nodes));
  return nodes;
}

}  // namespace ses::explain
