#include "models/train_loop.h"

#include <algorithm>
#include <limits>

#include "obs/model_health.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ses::models {

namespace ag = ses::autograd;

namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr const char* kBestKey = "best_params";

}  // namespace

void ObserveForwardHealth(const Encoder& encoder, const Encoder::Output& out,
                          const ag::EdgeList& edges) {
  auto& monitor = obs::ModelHealthMonitor::Get();
  if (!monitor.enabled()) return;
  const tensor::Tensor& hidden = out.hidden.value();
  monitor.ObserveActivations(hidden.data(), hidden.rows(), hidden.cols());
  const tensor::Tensor att = encoder.LastAttention();
  if (att.size() > 0 && att.size() == edges.size())
    monitor.ObserveAttention(att.data(), edges.dst.data(), edges.size());
}

TrainLoop::TrainLoop(std::string model, std::string phase,
                     std::vector<ag::Variable> params,
                     std::vector<std::string> param_names,
                     const TrainConfig& config, util::Rng* rng,
                     Recovery recovery)
    : model_(std::move(model)),
      phase_(std::move(phase)),
      params_(std::move(params)),
      param_names_(std::move(param_names)),
      config_(config),
      rng_(rng),
      recovery_(std::move(recovery)),
      optimizer_(params_, config.lr, 0.9f, 0.999f, 1e-8f,
                 config.weight_decay),
      guard_(config.max_bad_steps) {
  SES_CHECK(param_names_.size() == params_.size());
  optimizer_.set_max_grad_norm(config.max_grad_norm);
}

void TrainLoop::Run(int64_t first, int64_t end, const char* epoch_span,
                     const std::function<void(int64_t)>& body) {
  auto& health = obs::ModelHealthMonitor::Get();
  auto& telemetry = obs::Telemetry::Get();
  const int64_t ckpt_every = std::max<int64_t>(1, config_.checkpoint_every);
  for (int64_t epoch = first; epoch < end; ++epoch) {
    obs::ScopedSpan span(epoch_span);
    if (recovery_.faults) recovery_.faults->MaybeCrash(phase_, epoch);
    util::Timer epoch_timer;
    health.BeginEpoch(model_);
    epoch_ = epoch;
    verdict_.reset();
    body(epoch);
    SES_CHECK(verdict_.has_value());
    if (*verdict_ == Verdict::kRolledBack) {
      epoch = rollback_epoch_ - 1;
      continue;
    }
    obs::ModelHealthMonitor::EpochHealth epoch_health;
    if (health.enabled()) epoch_health = health.EndEpoch();
    if (telemetry.active()) {
      obs::EpochRecord record;
      record.model = model_;
      record.phase = phase_;
      record.epoch = epoch;
      record.loss = loss_;
      record.grad_norm = grad_norm_;
      record.epoch_seconds = epoch_timer.ElapsedSeconds();
      record.val_metric = best_val_;
      for (const auto& p : epoch_health.params) {
        if (p.grad_norm >= 0.0)
          record.layer_grad_norms.emplace_back(p.name, p.grad_norm);
        if (p.update_ratio >= 0.0)
          record.update_ratios.emplace_back(p.name, p.update_ratio);
      }
      record.dead_fraction = epoch_health.dead_fraction;
      record.attn_entropy = epoch_health.attn_entropy;
      telemetry.Emit(record);
    }
    if (config_.verbose && epoch % 20 == 0)
      SES_LOG_INFO << model_ << " " << phase_ << " epoch " << epoch
                   << " loss " << loss_;
    if ((epoch + 1) % ckpt_every == 0) WriteCheckpoint(epoch + 1);
  }
  if (best_.empty()) return;
  for (size_t i = 0; i < params_.size(); ++i)
    params_[i].mutable_value() = best_[i];
}

TrainLoop::Verdict TrainLoop::Step(ag::Variable loss) {
  SES_CHECK(!verdict_.has_value());
  robust::FaultPlan* faults = recovery_.faults;
  if (faults && faults->TakeNanLoss(phase_, epoch_))
    loss.mutable_value()[0] = kNaN;
  ag::Backward(loss);
  if (faults && faults->TakeNanGrad(phase_, epoch_) && !params_.empty())
    params_[0].mutable_grad()[0] = kNaN;
  loss_ = loss.value()[0];
  grad_norm_ = optimizer_.GradNorm();
  const bool observe = obs::ModelHealthMonitor::Get().enabled();
  if (observe) obs::ObserveParamsPreStep(param_names_, params_);
  verdict_ = Verdict::kSkipped;
  switch (guard_.Observe(loss_, grad_norm_)) {
    case robust::HealthMonitor::Action::kProceed:
      optimizer_.Step();
      if (observe) obs::ObserveParamsPostStep(param_names_, params_);
      verdict_ = Verdict::kStepped;
      break;
    case robust::HealthMonitor::Action::kRollback:
      if (RollBack()) {
        verdict_ = Verdict::kRolledBack;
        break;
      }
      [[fallthrough]];
    case robust::HealthMonitor::Action::kSkip:
      optimizer_.ZeroGrad();
      break;
  }
  return *verdict_;
}

void TrainLoop::OfferBest(double val) {
  if (val <= best_val_) return;
  best_val_ = val;
  best_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) best_[i] = params_[i].value();
}

int64_t TrainLoop::Resume(const robust::TrainingCheckpoint& ckpt) {
  Restore(ckpt);
  SES_LOG_INFO << model_ << " resuming " << phase_ << " at epoch "
               << ckpt.next_epoch << " from checkpoint";
  return ckpt.next_epoch;
}

void TrainLoop::WriteCheckpoint(int64_t next_epoch) {
  if (recovery_.checkpoints == nullptr) return;
  robust::TrainingCheckpoint c;
  c.model = model_;
  c.phase = phase_;
  c.next_epoch = next_epoch;
  c.params.reserve(params_.size());
  for (const auto& p : params_) c.params.push_back(p.value());
  c.optim.step_count = optimizer_.step_count();
  c.optim.m = optimizer_.moment1();
  c.optim.v = optimizer_.moment2();
  c.rng = rng_->State();
  c.best_val = best_val_;
  c.lr = optimizer_.lr();
  if (!best_.empty()) c.tensor_lists[kBestKey] = best_;
  if (recovery_.save) recovery_.save(&c);
  const std::string path = recovery_.checkpoints->Write(c);
  if (recovery_.faults)
    recovery_.faults->MaybeCorruptCheckpoint(phase_, next_epoch, path);
}

void TrainLoop::Restore(const robust::TrainingCheckpoint& ckpt) {
  SES_CHECK(ckpt.params.size() == params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    SES_CHECK(ckpt.params[i].SameShape(params_[i].value()));
    params_[i].mutable_value() = ckpt.params[i];
  }
  optimizer_.RestoreState(ckpt.optim.step_count, ckpt.optim.m, ckpt.optim.v);
  optimizer_.set_lr(ckpt.lr);
  rng_->SetState(ckpt.rng);
  best_val_ = ckpt.best_val;
  const auto it = ckpt.tensor_lists.find(kBestKey);
  best_ = it != ckpt.tensor_lists.end() ? it->second
                                        : std::vector<tensor::Tensor>{};
  if (recovery_.restore) recovery_.restore(ckpt);
}

bool TrainLoop::RollBack() {
  if (recovery_.checkpoints == nullptr) return false;
  const auto good = recovery_.checkpoints->LoadLatest();
  if (!good || good->phase != phase_) return false;
  optimizer_.ZeroGrad();
  Restore(*good);
  optimizer_.set_lr(optimizer_.lr() * config_.rollback_lr_decay);
  guard_.NoteRollback();
  SES_LOG_WARN << model_ << " " << phase_ << " rollback to epoch "
               << good->next_epoch << " with lr " << optimizer_.lr();
  rollback_epoch_ = good->next_epoch;
  return true;
}

}  // namespace ses::models
