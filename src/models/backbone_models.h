#ifndef SES_MODELS_BACKBONE_MODELS_H_
#define SES_MODELS_BACKBONE_MODELS_H_

#include <memory>

#include "models/encoders.h"
#include "models/node_classifier.h"

namespace ses::models {

/// Plain two-layer GNN classifier over a configurable backbone ("GCN" or
/// "GAT") — the paper's first two baselines. Trains with cross-entropy +
/// Adam, keeping the best-validation parameters.
class BackboneModel : public NodeClassifier {
 public:
  explicit BackboneModel(std::string backbone) : backbone_(std::move(backbone)) {}

  std::string name() const override { return backbone_; }
  void Fit(const data::Dataset& ds, const TrainConfig& config) override;
  tensor::Tensor Logits(const data::Dataset& ds) override;
  tensor::Tensor Embeddings(const data::Dataset& ds) override;

  const Encoder* encoder() const { return encoder_.get(); }

 private:
  Encoder::Output EvalForward(const data::Dataset& ds);

  std::string backbone_;
  std::unique_ptr<Encoder> encoder_;
  autograd::EdgeListPtr edges_;
  TrainConfig config_;
};

/// Snapshots / restores parameter values of a module (best-validation
/// selection for trainers outside TrainLoop).
class ParameterSnapshot {
 public:
  void Capture(const nn::Module& module);
  void Restore(nn::Module* module) const;
  bool empty() const { return values_.empty(); }

 private:
  std::vector<tensor::Tensor> values_;
};

}  // namespace ses::models

#endif  // SES_MODELS_BACKBONE_MODELS_H_
