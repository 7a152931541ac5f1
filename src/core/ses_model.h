#ifndef SES_CORE_SES_MODEL_H_
#define SES_CORE_SES_MODEL_H_

#include <array>
#include <memory>
#include <string>

#include "core/mask_generator.h"
#include "core/pairs.h"
#include "graph/khop.h"
#include "models/backbone_models.h"
#include "models/encoders.h"
#include "models/node_classifier.h"

namespace ses::core {

/// SES hyperparameters and ablation switches beyond the shared TrainConfig.
struct SesOptions {
  std::string backbone = "GCN";  ///< "GCN" or "GAT"
  int64_t k = 2;                 ///< k-hop radius of A^(k)
  float alpha = 0.5f;            ///< Eq. 9 balance
  float beta = 0.5f;             ///< Eq. 13 balance
  float margin = 1.0f;           ///< triplet margin m (Eq. 12)
  double sample_ratio = 0.8;     ///< r of Algorithm 1
  int64_t epl_epochs = 15;       ///< enhanced-predictive-learning epochs
  /// Caps |P_r(i)| (closest-first) so N_k stays linear on dense graphs.
  int64_t max_khop_neighbors = 32;

  /// Weight of the link-prediction subgraph loss (Eq. 7) inside the
  /// mask-generator objective.
  float lambda_sub = 1.0f;
  /// Mask regularization inside the explainable-training objective: a size
  /// penalty (mean of M_s) and an element-entropy penalty that polarizes the
  /// mask. These give the co-trained L^m_xent term the competitive pressure
  /// that makes the structure mask selective — without them a mask that
  /// keeps every edge is a global optimum and explanations are uniform
  /// (GNNExplainer and PGExplainer regularize their masks identically).
  float lambda_size = 0.1f;
  float lambda_entropy = 0.05f;
  /// Size penalty on the feature mask M_f. Without it M_f saturates high
  /// and uniform (Eq. 9 gives no reason to suppress a harmless feature), so
  /// its weights carry no ranking information and Fidelity+ (Table 5)
  /// degenerates; with it, only features the masked CE defends stay high.
  float lambda_feat_size = 0.5f;

  /// Ablation switches (Table 10 / Table 5):
  bool use_feature_mask = true;    ///< -{M_f} when false
  bool use_structure_mask = true;  ///< -{M̂_s} when false (phase 2 uses A)
  bool use_xent_phase2 = true;     ///< -{L_xent} when false
  bool use_triplet = true;         ///< -{Triplet} when false
  bool use_mask_xent = true;       ///< -{L^m_xent} when false (Table 5)
};

/// Frozen explanation masks, either produced by SES's own mask generator or
/// injected from a post-hoc explainer (the +{epl} ablation).
struct FrozenMasks {
  /// M_f at the nonzeros of X, CSR order (empty => no feature mask).
  tensor::Tensor feature_nnz;
  /// M̂_s restricted to k-hop pairs, one weight per entry of the k-hop CSR
  /// table: node i's pairs start at khop.PairOffset(i).
  tensor::Tensor structure_khop;
  /// M̂_s restricted to the 1-hop message-passing edges incl. self-loops
  /// (DirectedEdges(true) order; self-loop entries 1).
  tensor::Tensor structure_adj;
};

/// The Self-Explained and self-Supervised GNN (Algorithm 2).
///
/// Phase 1 (explainable training) co-trains the mask generator with the
/// graph encoder under Eq. 9; phase 2 (enhanced predictive learning) freezes
/// the masks, builds positive/negative pairs from them (Algorithm 1), and
/// fine-tunes the encoder under Eq. 13. The encoder parameters are shared
/// between phases.
class SesModel : public models::NodeClassifier {
 public:
  explicit SesModel(SesOptions options = {});

  std::string name() const override {
    return "SES (" + options_.backbone + ")";
  }
  void Fit(const data::Dataset& ds, const models::TrainConfig& config) override;
  tensor::Tensor Logits(const data::Dataset& ds) override;
  tensor::Tensor Embeddings(const data::Dataset& ds) override;

  /// --- explanation accessors (valid after Fit) -----------------------------
  /// M_f at the nonzeros of X (E_feat = M_f ⊙ X shares the CSR pattern).
  const tensor::Tensor& feature_mask_nnz() const { return masks_.feature_nnz; }
  /// M_s over k-hop pairs (E_sub = M̂_s ⊙ A^(k)).
  const tensor::Tensor& structure_mask_khop() const {
    return masks_.structure_khop;
  }
  /// M̂_s over the 1-hop message-passing edges (DirectedEdges(true) order) —
  /// the mask EvalForward applies; serving sessions cache it per graph.
  const tensor::Tensor& structure_mask_adj() const {
    return masks_.structure_adj;
  }
  const graph::KHopAdjacency& khop() const { return *khop_; }
  /// Symmetrized importance score per undirected edge of ds.graph — the
  /// representation the explanation-AUC metric consumes.
  std::vector<float> EdgeScores(const data::Dataset& ds) const;

  /// --- timing (Tables 6 and 7) ---------------------------------------------
  double explainable_training_seconds() const { return et_seconds_; }
  double enhanced_learning_seconds() const { return epl_seconds_; }
  /// Time from trained state to explanations for all nodes (mask readout).
  double explanation_inference_seconds() const { return inference_seconds_; }

  /// Loss history of phase 1 (Fig. 7 curves): {epoch, train loss, val loss}.
  const std::vector<std::array<double, 3>>& loss_history() const {
    return loss_history_;
  }
  /// Feature-mask snapshots taken at epochs 0, mid, last (Fig. 7 heatmaps).
  const std::vector<tensor::Tensor>& mask_snapshots() const {
    return mask_snapshots_;
  }

  const models::Encoder* encoder() const { return encoder_.get(); }
  const SesOptions& options() const { return options_; }

  /// Runs phase 2 alone with externally supplied masks — the +{epl} ablation
  /// of Table 10 (post-hoc GNNExplainer / PGExplainer masks feeding SES's
  /// enhanced predictive learning). `encoder` must already be trained.
  static void EnhancedPredictiveLearning(
      models::Encoder* encoder, const data::Dataset& ds,
      const FrozenMasks& masks, const PosNegPairs& pairs,
      const SesOptions& options, const models::TrainConfig& config,
      util::Rng* rng);

 private:
  models::Encoder::Output EvalForward(const data::Dataset& ds) const;

  SesOptions options_;
  models::TrainConfig config_;
  std::unique_ptr<models::Encoder> encoder_;
  std::unique_ptr<MaskGenerator> mask_generator_;
  std::unique_ptr<graph::KHopAdjacency> khop_;
  autograd::EdgeListPtr adj_edges_;  ///< A + self-loops
  FrozenMasks masks_;
  double et_seconds_ = 0.0;
  double epl_seconds_ = 0.0;
  double inference_seconds_ = 0.0;
  std::vector<std::array<double, 3>> loss_history_;
  std::vector<tensor::Tensor> mask_snapshots_;
};

}  // namespace ses::core

#endif  // SES_CORE_SES_MODEL_H_
