#include "models/backbone_models.h"

#include "autograd/ops.h"
#include "models/train_loop.h"
#include "util/logging.h"

namespace ses::models {

namespace ag = ses::autograd;

void ParameterSnapshot::Capture(const nn::Module& module) {
  values_.clear();
  for (const auto& p : module.Parameters()) values_.push_back(p.value());
}

void ParameterSnapshot::Restore(nn::Module* module) const {
  auto params = module->Parameters();
  SES_CHECK(params.size() == values_.size());
  for (size_t i = 0; i < params.size(); ++i)
    params[i].mutable_value() = values_[i];
}

void BackboneModel::Fit(const data::Dataset& ds, const TrainConfig& config) {
  config_ = config;
  util::Rng rng(config.seed + 1);
  encoder_ = MakeEncoder(backbone_, ds.num_features(), config.hidden,
                         ds.num_classes, &rng);
  edges_ = ds.graph.DirectedEdges(/*add_self_loops=*/true);
  // No checkpoints and no fault plan: the loop's guard only skips a
  // non-finite step, which Adam would otherwise write into its moments.
  TrainLoop loop(backbone_, "fit", encoder_->Parameters(),
                 encoder_->ParameterNames(), config, &rng);
  nn::FeatureInput input = MakeInput(ds);
  loop.Run(0, config.epochs, "backbone/fit_epoch", [&](int64_t) {
    auto out = encoder_->Forward(input, edges_, {}, config.dropout,
                                 /*training=*/true, &rng);
    ObserveForwardHealth(*encoder_, out, *edges_);
    const TrainLoop::Verdict verdict = loop.Step(ag::NllLoss(
        ag::LogSoftmaxRows(out.logits), ds.labels, ds.train_idx));
    if (verdict == TrainLoop::Verdict::kStepped && config.track_best_val &&
        !ds.val_idx.empty())
      loop.OfferBest(Accuracy(out.logits.value(), ds.labels, ds.val_idx));
  });
}

Encoder::Output BackboneModel::EvalForward(const data::Dataset& ds) {
  SES_CHECK(encoder_ != nullptr);
  ag::InferenceGuard no_grad;
  util::Rng rng(0);
  return encoder_->Forward(MakeInput(ds), edges_, {}, 0.0f,
                           /*training=*/false, &rng);
}

tensor::Tensor BackboneModel::Logits(const data::Dataset& ds) {
  return EvalForward(ds).logits.value();
}

tensor::Tensor BackboneModel::Embeddings(const data::Dataset& ds) {
  return EvalForward(ds).hidden.value();
}

}  // namespace ses::models
