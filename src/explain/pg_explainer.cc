#include "explain/pg_explainer.h"

#include "obs/trace.h"

#include <cmath>

#include "autograd/ops.h"
#include "nn/optim.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace ses::explain {

namespace ag = ses::autograd;
namespace t = ses::tensor;

std::vector<float> PgExplainer::ExplainEdges(const data::Dataset& ds,
                                             const std::vector<int64_t>&) {
  SES_TRACE_SPAN("explain/PGExplainer");
  util::Rng rng(31);
  auto edges = ds.graph.DirectedEdges(/*add_self_loops=*/true);
  nn::FeatureInput input = nn::FeatureInput::Sparse(ds.features);

  // Frozen embeddings + original predictions from the trained model.
  // Tape-free: gradient later flows to the scorer through `mask`, not
  // through this embedding extraction.
  t::Tensor embeddings;
  std::vector<int64_t> original_pred;
  {
    ag::InferenceGuard no_grad;
    util::Rng r0(0);
    auto out = encoder_->Forward(input, edges, {}, 0.0f, /*training=*/false,
                                 &r0);
    embeddings = out.hidden.value();
    original_pred = t::ArgmaxRows(out.logits.value());
  }
  std::vector<int64_t> all(static_cast<size_t>(ds.num_nodes()));
  for (int64_t i = 0; i < ds.num_nodes(); ++i) all[static_cast<size_t>(i)] = i;

  // Edge scorer g([z_u || z_v]) — evaluated as two projections + gathers.
  nn::Mlp scorer({2 * embeddings.cols(), options_.mlp_hidden, 1}, &rng);
  nn::Adam optimizer(scorer.Parameters(), options_.lr);
  ag::Variable z = ag::Variable::Constant(embeddings);

  auto edge_logits = [&]() {
    ag::Variable zu = ag::GatherRows(z, edges->src);
    ag::Variable zv = ag::GatherRows(z, edges->dst);
    return scorer.Forward(ag::ConcatCols(zu, zv));  // E x 1
  };

  for (int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
    ag::Variable logits = edge_logits();
    // Concrete / Gumbel-sigmoid relaxation: sigmoid((logits + noise) / tau).
    t::Tensor noise(edges->size(), 1);
    for (int64_t e = 0; e < edges->size(); ++e) {
      const double u = std::max(1e-9, rng.Uniform());
      noise[e] = static_cast<float>(std::log(u) - std::log(1.0 - u));
    }
    ag::Variable mask = ag::Sigmoid(ag::Scale(
        ag::Add(logits, ag::Variable::Constant(noise)),
        1.0f / options_.temperature));
    util::Rng r1(0);
    auto out = encoder_->Forward(input, edges, mask, 0.0f, /*training=*/false,
                                 &r1);
    ag::Variable loss = ag::NllLoss(ag::LogSoftmaxRows(out.logits),
                                    original_pred, all);
    loss = ag::Add(loss, ag::MaskRegularizer(mask, options_.lambda_size,
                                             options_.lambda_entropy));
    ag::Backward(loss);
    optimizer.Step();
  }

  // Deterministic readout (no noise), symmetrized over directions.
  t::Tensor final_scores = t::Sigmoid(edge_logits().value());
  const auto& und = ds.graph.edges();
  std::vector<float> scores(und.size());
  for (size_t i = 0; i < und.size(); ++i)
    scores[i] = 0.5f * (final_scores[2 * static_cast<int64_t>(i)] +
                        final_scores[2 * static_cast<int64_t>(i) + 1]);
  return scores;
}

}  // namespace ses::explain
