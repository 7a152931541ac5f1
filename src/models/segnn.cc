#include "models/segnn.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "autograd/ops.h"
#include "models/backbone_models.h"
#include "nn/optim.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace ses::models {

namespace ag = ses::autograd;
namespace t = ses::tensor;

void SegnnModel::Fit(const data::Dataset& ds, const TrainConfig& config) {
  config_ = config;
  fitted_ds_ = &ds;
  logits_valid_ = false;
  util::Rng rng(config.seed + 17);
  encoder_ = MakeEncoder("GCN", ds.num_features(), config.hidden,
                         ds.num_classes, &rng);
  edges_ = ds.graph.DirectedEdges(/*add_self_loops=*/true);
  nn::Adam optimizer(encoder_->Parameters(), config.lr, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  optimizer.set_max_grad_norm(config.max_grad_norm);
  nn::FeatureInput input = MakeInput(ds);
  // Supervised embedding training (SEGNN additionally supervises similarity
  // with sampled same/different-label pairs).
  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    auto out = encoder_->Forward(input, edges_, {}, config.dropout,
                                 /*training=*/true, &rng);
    ag::Variable loss = ag::NllLoss(ag::LogSoftmaxRows(out.logits), ds.labels,
                                    ds.train_idx);
    // Pairwise similarity supervision: same-label training pairs pulled
    // together, different-label pushed apart (triplet form).
    const int64_t batch = std::min<int64_t>(
        256, static_cast<int64_t>(ds.train_idx.size()));
    auto triplets = std::make_shared<ag::Triplets>();
    for (int64_t b = 0; b < batch; ++b) {
      const int64_t a = ds.train_idx[static_cast<size_t>(
          rng.UniformInt(ds.train_idx.size()))];
      int64_t p = -1, n = -1;
      for (int tries = 0; tries < 30 && (p < 0 || n < 0); ++tries) {
        const int64_t cand = ds.train_idx[static_cast<size_t>(
            rng.UniformInt(ds.train_idx.size()))];
        if (cand == a) continue;
        if (ds.labels[static_cast<size_t>(cand)] ==
            ds.labels[static_cast<size_t>(a)]) {
          if (p < 0) p = cand;
        } else if (n < 0) {
          n = cand;
        }
      }
      if (p >= 0 && n >= 0) {
        triplets->anchor.push_back(a);
        triplets->positive.push_back(p);
        triplets->negative.push_back(n);
      }
    }
    if (triplets->size() > 0) {
      ag::Variable trip = ag::TripletLoss(out.hidden, triplets, 1.0f);
      loss = ag::Add(loss, ag::Scale(trip, 0.5f));
    }
    ag::Backward(loss);
    optimizer.Step();
  }
}

tensor::Tensor SegnnModel::Logits(const data::Dataset& ds) {
  SES_CHECK(encoder_ != nullptr);
  if (logits_valid_ && fitted_ds_ == &ds) return cached_logits_;
  ag::InferenceGuard no_grad;
  util::Rng rng(0);
  auto out = encoder_->Forward(MakeInput(ds), edges_, {}, 0.0f,
                               /*training=*/false, &rng);
  const t::Tensor emb = t::NormalizeRows(out.hidden.value());
  // K-nearest labeled nodes by embedding-cosine + structure similarity.
  const auto& labeled = ds.train_idx;
  t::Tensor labeled_emb = t::GatherRows(emb, labeled);
  // sims[i, j] = <emb_i, labeled_emb_j>
  t::Tensor sims = t::MatMulTransposedB(emb, labeled_emb);
  t::Tensor logits(ds.num_nodes(), ds.num_classes);
  std::vector<int64_t> order(labeled.size());
#pragma omp parallel for schedule(dynamic, 32) firstprivate(order)
  for (int64_t i = 0; i < ds.num_nodes(); ++i) {
    const float* row = sims.RowPtr(i);
    // Combined similarity: cosine + Jaccard of neighborhoods (the
    // interpretable local-structure term).
    std::vector<float> combined(labeled.size());
    for (size_t j = 0; j < labeled.size(); ++j) {
      combined[j] = row[j] + 0.5f * ds.graph.NeighborhoodJaccard(
                                        i, labeled[j]);
    }
    std::iota(order.begin(), order.end(), 0);
    const int64_t k = std::min<int64_t>(k_neighbors_,
                                        static_cast<int64_t>(labeled.size()));
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&combined](int64_t a, int64_t b) {
                        return combined[static_cast<size_t>(a)] >
                               combined[static_cast<size_t>(b)];
                      });
    for (int64_t j = 0; j < k; ++j) {
      const int64_t l = labeled[static_cast<size_t>(order[static_cast<size_t>(j)])];
      logits.At(i, ds.labels[static_cast<size_t>(l)]) +=
          std::max(0.0f, combined[static_cast<size_t>(order[static_cast<size_t>(j)])]);
    }
  }
  cached_logits_ = logits;
  logits_valid_ = true;
  return logits;
}

tensor::Tensor SegnnModel::Embeddings(const data::Dataset& ds) {
  ag::InferenceGuard no_grad;
  util::Rng rng(0);
  return encoder_
      ->Forward(MakeInput(ds), edges_, {}, 0.0f, /*training=*/false, &rng)
      .hidden.value();
}

std::vector<float> SegnnModel::EdgeScores(const data::Dataset& ds) {
  const t::Tensor emb = t::NormalizeRows(Embeddings(ds));
  const auto& edges = ds.graph.edges();
  std::vector<float> scores(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    auto [u, v] = edges[e];
    const float* a = emb.RowPtr(u);
    const float* b = emb.RowPtr(v);
    double dot = 0.0;
    for (int64_t c = 0; c < emb.cols(); ++c) dot += a[c] * b[c];
    scores[e] = static_cast<float>(dot) +
                0.5f * ds.graph.NeighborhoodJaccard(u, v);
  }
  return scores;
}

}  // namespace ses::models
