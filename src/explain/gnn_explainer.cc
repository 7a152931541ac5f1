#include "explain/gnn_explainer.h"

#include "obs/trace.h"

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "nn/optim.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace ses::explain {

namespace ag = ses::autograd;
namespace t = ses::tensor;

void GnnExplainer::Run(const data::Dataset& ds,
                       const std::vector<int64_t>& nodes) {
  if (has_cache_ && cached_ds_ == &ds && cached_nodes_ == nodes) return;
  cached_ds_ = &ds;
  cached_nodes_ = nodes;
  has_cache_ = true;
  util::Rng rng(23);

  const auto& und_edges = ds.graph.edges();
  edge_scores_.assign(und_edges.size(), 0.0f);
  std::vector<float> edge_counts(und_edges.size(), 0.0f);
  feature_scores_.assign(static_cast<size_t>(ds.features->nnz()), 0.0f);
  std::vector<float> feature_counts(feature_scores_.size(), 0.0f);

  // Original full-graph predictions (the explanation target). Read-only,
  // so tape-free; the mask optimization below still records its own tape.
  std::vector<int64_t> original_pred;
  {
    ag::InferenceGuard no_grad;
    util::Rng r0(0);
    auto out = encoder_->Forward(nn::FeatureInput::Sparse(ds.features),
                                 ds.graph.DirectedEdges(true), {}, 0.0f,
                                 /*training=*/false, &r0);
    original_pred = t::ArgmaxRows(out.logits.value());
  }

  for (int64_t v : nodes.empty() ? NodesToExplain(ds, 0) : nodes) {
    graph::Subgraph sub = graph::ExtractEgoNet(ds.graph, v, options_.hops);
    if (sub.graph.num_edges() == 0) continue;
    auto sub_edges = sub.graph.DirectedEdges(/*add_self_loops=*/true);
    auto sub_features = std::make_shared<t::SparseMatrix>(
        ds.features->GatherRows(sub.nodes));

    // Trainable mask logits (sigmoid applied in the loss graph).
    ag::Variable edge_logits = ag::Variable::Parameter(
        t::Tensor::Randn(sub_edges->size(), 1, &rng));
    edge_logits.mutable_value().ScaleInPlace(0.1f);
    ag::Variable feat_logits = ag::Variable::Parameter(
        t::Tensor::Randn(sub_features->nnz(), 1, &rng));
    feat_logits.mutable_value().ScaleInPlace(0.1f);

    nn::Adam optimizer({edge_logits, feat_logits}, options_.lr);
    const std::vector<int64_t> center{sub.center_local};
    std::vector<int64_t> target_labels(sub.nodes.size(), 0);
    target_labels[static_cast<size_t>(sub.center_local)] =
        original_pred[static_cast<size_t>(v)];

    ag::Variable edge_mask, feat_mask;
    for (int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
      edge_mask = ag::Sigmoid(edge_logits);
      feat_mask = ag::Sigmoid(feat_logits);
      ag::Variable logp = SubgraphLogProbs(*encoder_, sub_edges, edge_mask,
                                           feat_mask, sub_features);
      ag::Variable loss = ag::NllLoss(logp, target_labels, center);
      // Mask sizes, and the element entropy that pushes the edge mask
      // toward binary decisions.
      loss = ag::Add(loss, ag::MaskRegularizer(edge_mask, options_.lambda_size,
                                               options_.lambda_entropy));
      loss = ag::Add(loss, ag::Scale(ag::MeanAll(feat_mask),
                                     options_.lambda_feat_size));
      ag::Backward(loss);
      optimizer.Step();
    }

    // Fold the learned masks back onto global edges / feature nonzeros.
    const t::Tensor& em = edge_mask.value();
    for (int64_t e = 0; e < sub_edges->size(); ++e) {
      const int64_t ls = sub_edges->src[static_cast<size_t>(e)];
      const int64_t ld = sub_edges->dst[static_cast<size_t>(e)];
      if (ls == ld) continue;  // self-loop
      const int64_t gu = sub.nodes[static_cast<size_t>(ls)];
      const int64_t gv = sub.nodes[static_cast<size_t>(ld)];
      // Find the undirected edge index by binary search in the sorted list.
      auto key = std::make_pair(std::min(gu, gv), std::max(gu, gv));
      auto it = std::lower_bound(und_edges.begin(), und_edges.end(), key);
      if (it == und_edges.end() || *it != key) continue;
      const size_t idx = static_cast<size_t>(it - und_edges.begin());
      edge_scores_[idx] += em[e];
      edge_counts[idx] += 1.0f;
    }
    const t::Tensor& fm = feat_mask.value();
    // Feature mask of the CENTER row only (per-node feature explanation).
    const int64_t row = sub.center_local;
    const int64_t global_lo = ds.features->row_ptr[static_cast<size_t>(v)];
    const int64_t local_lo = sub_features->row_ptr[static_cast<size_t>(row)];
    const int64_t count = sub_features->row_ptr[static_cast<size_t>(row) + 1] -
                          local_lo;
    for (int64_t j = 0; j < count; ++j) {
      feature_scores_[static_cast<size_t>(global_lo + j)] += fm[local_lo + j];
      feature_counts[static_cast<size_t>(global_lo + j)] += 1.0f;
    }
  }
  for (size_t i = 0; i < edge_scores_.size(); ++i)
    if (edge_counts[i] > 0.0f) edge_scores_[i] /= edge_counts[i];
  for (size_t i = 0; i < feature_scores_.size(); ++i)
    if (feature_counts[i] > 0.0f) feature_scores_[i] /= feature_counts[i];
}

std::vector<float> GnnExplainer::ExplainEdges(
    const data::Dataset& ds, const std::vector<int64_t>& nodes) {
  SES_TRACE_SPAN("explain/GNNExplainer");
  Run(ds, nodes);
  return edge_scores_;
}

std::vector<float> GnnExplainer::ExplainFeaturesNnz(
    const data::Dataset& ds, const std::vector<int64_t>& nodes) {
  SES_TRACE_SPAN("explain/GNNExplainer");
  Run(ds, nodes);
  return feature_scores_;
}

}  // namespace ses::explain
