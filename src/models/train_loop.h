#ifndef SES_MODELS_TRAIN_LOOP_H_
#define SES_MODELS_TRAIN_LOOP_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "models/encoders.h"
#include "models/node_classifier.h"
#include "nn/optim.h"
#include "robust/checkpoint.h"
#include "robust/fault.h"
#include "robust/health.h"
#include "util/rng.h"

namespace ses::models {

/// Feeds one training forward's health signals (dead hidden units, GAT
/// attention entropy over `edges`) to the ModelHealthMonitor. No-op while
/// the monitor is disabled.
void ObserveForwardHealth(const Encoder& encoder, const Encoder::Output& out,
                          const autograd::EdgeList& edges);

/// Checkpointing and fault injection for one training phase. With no
/// manager nothing is written and a rollback falls back to a skip; with no
/// plan no fault fires.
struct Recovery {
  robust::CheckpointManager* checkpoints = nullptr;
  robust::FaultPlan* faults = nullptr;
  /// Adds the trainer's own fields to a checkpoint the loop has filled with
  /// the shared ones.
  std::function<void(robust::TrainingCheckpoint*)> save;
  /// Reads those fields back, on resume and on rollback.
  std::function<void(const robust::TrainingCheckpoint&)> restore;
};

/// The guarded epoch loop every trainer runs: SES phase 1, SES phase 2 and
/// BackboneModel::Fit. It owns Adam over `params` and, each epoch:
///  - the fault hooks (crash at epoch start, NaN loss / NaN gradient around
///    the backward pass) and the backward pass itself;
///  - the robust::HealthMonitor verdict: step, skip a non-finite step, or,
///    after max_bad_steps in a row, roll back to this phase's latest
///    checkpoint with the learning rate times rollback_lr_decay;
///  - the ModelHealthMonitor window and the obs::EpochRecord;
///  - the checkpoint cadence, and the fields every checkpoint shares
///    (parameters, Adam state, RNG, learning rate, best-val and its
///    parameter snapshot).
/// The trainer supplies the epoch body: forward, loss, Step(loss), then its
/// validation bookkeeping. With checkpointing and telemetry off the loop
/// adds no per-epoch work beyond the finite-check of loss and grad norm.
class TrainLoop {
 public:
  enum class Verdict { kStepped, kSkipped, kRolledBack };

  /// `model` labels telemetry, health gauges and checkpoints; `phase`
  /// ("phase1", "phase2", "fit") labels them too and matches fault specs.
  /// `param_names` align with `params`.
  TrainLoop(std::string model, std::string phase,
            std::vector<autograd::Variable> params,
            std::vector<std::string> param_names, const TrainConfig& config,
            util::Rng* rng, Recovery recovery = {});

  /// Runs epochs [first, end), each inside an `epoch_span` trace span (a
  /// string literal). `body(epoch)` must call Step once and return at once
  /// when it yields kRolledBack. Ends by restoring the best-val parameters.
  void Run(int64_t first, int64_t end, const char* epoch_span,
           const std::function<void(int64_t)>& body);

  /// Backward pass of this epoch's loss and the guarded optimizer step.
  Verdict Step(autograd::Variable loss);

  /// Keeps `val` and a copy of the parameters when `val` beats the best.
  void OfferBest(double val);

  /// Restores a checkpoint of this phase; returns the epoch to resume at.
  int64_t Resume(const robust::TrainingCheckpoint& ckpt);

  /// Writes a checkpoint whose resume starts at `next_epoch` (no-op without
  /// a checkpoint manager).
  void WriteCheckpoint(int64_t next_epoch);

 private:
  void Restore(const robust::TrainingCheckpoint& ckpt);
  /// Restores the latest checkpoint if it belongs to this phase.
  bool RollBack();

  std::string model_;
  std::string phase_;
  std::vector<autograd::Variable> params_;
  std::vector<std::string> param_names_;
  TrainConfig config_;
  util::Rng* rng_;
  Recovery recovery_;
  nn::Adam optimizer_;
  robust::HealthMonitor guard_;

  double best_val_ = -1.0;
  std::vector<tensor::Tensor> best_;  ///< params_ values at best_val_

  int64_t epoch_ = 0;                ///< epoch the body is running
  std::optional<Verdict> verdict_;   ///< set by this epoch's Step
  int64_t rollback_epoch_ = 0;       ///< resume point of the last rollback
  double loss_ = 0.0;                ///< this epoch's loss, as guarded
  double grad_norm_ = 0.0;
};

}  // namespace ses::models

#endif  // SES_MODELS_TRAIN_LOOP_H_
