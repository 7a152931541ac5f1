#include "core/ses_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "nn/optim.h"
#include "obs/metrics.h"
#include "obs/model_health.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "robust/checkpoint.h"
#include "robust/fault.h"
#include "robust/health.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ses::core {

namespace ag = ses::autograd;
namespace t = ses::tensor;

namespace {

/// Appends self-loop pairs to a pair list so it can serve as a
/// message-passing support (every node keeps its own features).
ag::EdgeListPtr WithSelfLoops(const ag::EdgeList& pairs) {
  auto out = std::make_shared<ag::EdgeList>();
  out->num_nodes = pairs.num_nodes;
  out->src = pairs.src;
  out->dst = pairs.dst;
  for (int64_t i = 0; i < pairs.num_nodes; ++i) {
    out->src.push_back(i);
    out->dst.push_back(i);
  }
  return out;
}

/// Extends an E x 1 mask Variable with constant-1 entries for the self-loops
/// appended by WithSelfLoops.
ag::Variable MaskWithSelfLoops(const ag::Variable& mask, int64_t num_nodes) {
  return ag::ConcatRows(mask,
                        ag::Variable::Constant(t::Tensor::Ones(num_nodes, 1)));
}

// ------------------------------------------------- checkpoint plumbing

/// Copies the current parameter values (registered order) out of the live
/// Variable handles.
std::vector<t::Tensor> SnapshotParams(const std::vector<ag::Variable>& params) {
  std::vector<t::Tensor> values;
  values.reserve(params.size());
  for (const auto& p : params) values.push_back(p.value());
  return values;
}

/// Positional, shape-checked restore of checkpointed values into the live
/// parameter handles.
void RestoreParams(std::vector<ag::Variable> params,
                   const std::vector<t::Tensor>& values) {
  SES_CHECK(params.size() == values.size());
  for (size_t i = 0; i < params.size(); ++i) {
    SES_CHECK(values[i].SameShape(params[i].value()));
    params[i].mutable_value() = values[i];
  }
}

std::vector<double> FlattenHistory(
    const std::vector<std::array<double, 3>>& history) {
  std::vector<double> flat;
  flat.reserve(history.size() * 3);
  for (const auto& row : history)
    flat.insert(flat.end(), row.begin(), row.end());
  return flat;
}

std::vector<std::array<double, 3>> UnflattenHistory(
    const std::vector<double>& flat) {
  std::vector<std::array<double, 3>> history(flat.size() / 3);
  for (size_t i = 0; i < history.size(); ++i)
    history[i] = {flat[3 * i], flat[3 * i + 1], flat[3 * i + 2]};
  return history;
}

/// Mirrors the robustness and serving counters into a telemetry record.
void FillRobustCounters(obs::EpochRecord* record) {
  t::workspace::SyncMetricsRegistry();
  auto& registry = obs::MetricsRegistry::Get();
  record->nan_skips = registry.GetCounter("ses.train.nan_skips").Value();
  record->rollbacks = registry.GetCounter("ses.train.rollbacks").Value();
  record->ckpt_writes = registry.GetCounter("ses.ckpt.writes").Value();
  record->pool_hits = registry.GetCounter("ses.pool.hits").Value();
  record->pool_misses = registry.GetCounter("ses.pool.misses").Value();
  record->infer_cache_hits =
      registry.GetCounter("ses.infer.cache_hits").Value();
}

/// Feeds one training forward's health signals (dead hidden units, GAT
/// attention entropy) to the ModelHealthMonitor. No-op while disabled.
void ObserveForwardHealth(const models::Encoder& encoder,
                          const models::Encoder::Output& out,
                          const ag::EdgeListPtr& edges) {
  auto& monitor = obs::ModelHealthMonitor::Get();
  if (!monitor.enabled()) return;
  const t::Tensor& hidden = out.hidden.value();
  monitor.ObserveActivations(hidden.data(), hidden.rows(), hidden.cols());
  const t::Tensor att = encoder.LastAttention();
  if (att.size() > 0 && att.size() == edges->size())
    monitor.ObserveAttention(att.data(), edges->dst.data(), edges->size());
}

/// Copies a finalized health window into the telemetry record.
void FillHealth(const obs::ModelHealthMonitor::EpochHealth& health,
                obs::EpochRecord* record) {
  for (const auto& p : health.params) {
    if (p.grad_norm >= 0.0)
      record->layer_grad_norms.emplace_back(p.name, p.grad_norm);
    if (p.update_ratio >= 0.0)
      record->update_ratios.emplace_back(p.name, p.update_ratio);
  }
  record->dead_fraction = health.dead_fraction;
  record->attn_entropy = health.attn_entropy;
}

/// Recovery context threaded through the phase-2 loop. `base` carries the
/// state a resumed run cannot recompute (frozen masks, pair lists, phase-1
/// loss history) into every phase-2 checkpoint write.
struct Phase2Context {
  robust::CheckpointManager* mgr = nullptr;
  robust::FaultPlan* faults = nullptr;
  const robust::TrainingCheckpoint* resume = nullptr;
  robust::TrainingCheckpoint base;
};

/// Phase 2 (Eq. 13) with optional checkpoint/restore + fault injection. The
/// public EnhancedPredictiveLearning entry point (the +{epl} ablation) calls
/// this with a null context.
void Phase2LoopImpl(models::Encoder* encoder, const data::Dataset& ds,
                    const FrozenMasks& masks, const PosNegPairs& pairs,
                    const SesOptions& options,
                    const models::TrainConfig& config, util::Rng* rng,
                    Phase2Context* ctx) {
  SES_TRACE_SPAN("ses/phase2");
  auto adj_edges = ds.graph.DirectedEdges(/*add_self_loops=*/true);
  nn::FeatureInput input =
      (options.use_feature_mask && masks.feature_nnz.size() > 0)
          ? nn::FeatureInput::Sparse(
                ds.features, ag::Variable::Constant(masks.feature_nnz))
          : models::MakeInput(ds);
  ag::Variable adj_mask;
  if (options.use_structure_mask && masks.structure_adj.size() > 0)
    adj_mask = ag::Variable::Constant(masks.structure_adj);

  nn::Adam optimizer(encoder->Parameters(), config.lr, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  optimizer.set_max_grad_norm(config.max_grad_norm);
  robust::HealthMonitor health(
      {config.max_bad_steps, config.rollback_lr_decay});
  models::ParameterSnapshot best;
  double best_val = -1.0;
  int64_t start_epoch = 0;

  auto make_checkpoint = [&](int64_t next_epoch) {
    robust::TrainingCheckpoint c = ctx->base;
    c.next_epoch = next_epoch;
    c.params = SnapshotParams(encoder->Parameters());
    c.optim.step_count = optimizer.step_count();
    c.optim.m = optimizer.moment1();
    c.optim.v = optimizer.moment2();
    c.rng = rng->State();
    c.best_val = best_val;
    c.lr = optimizer.lr();
    if (!best.empty()) c.tensor_lists["best_encoder"] = best.values();
    return c;
  };
  auto restore_checkpoint = [&](const robust::TrainingCheckpoint& c) {
    RestoreParams(encoder->Parameters(), c.params);
    optimizer.RestoreState(c.optim.step_count, c.optim.m, c.optim.v);
    optimizer.set_lr(c.lr);
    rng->SetState(c.rng);
    best_val = c.best_val;
    if (auto it = c.tensor_lists.find("best_encoder");
        it != c.tensor_lists.end())
      best.set_values(it->second);
    else
      best.set_values({});
  };
  auto write_checkpoint = [&](int64_t next_epoch) {
    if (ctx == nullptr || ctx->mgr == nullptr) return;
    const std::string path = ctx->mgr->Write(make_checkpoint(next_epoch));
    if (ctx->faults)
      ctx->faults->MaybeCorruptCheckpoint("phase2", next_epoch, path);
  };

  if (ctx && ctx->resume) {
    restore_checkpoint(*ctx->resume);
    start_epoch = ctx->resume->next_epoch;
    SES_LOG_INFO << "resuming phase 2 at epoch " << start_epoch
                 << " from checkpoint";
  } else {
    // Baseline: the phase-1 encoder itself (under masked inference). Phase 2
    // keeps whatever validates best, so it can refine but never regress.
    if (!ds.val_idx.empty()) {
      ag::InferenceGuard no_grad;
      auto initial = encoder->Forward(input, adj_edges, adj_mask, 0.0f,
                                      /*training=*/false, rng);
      best_val =
          models::Accuracy(initial.logits.value(), ds.labels, ds.val_idx);
      best.Capture(*encoder);
    }
    // Phase-boundary checkpoint: a kill inside phase 2 must never have to
    // replay phase 1.
    write_checkpoint(0);
  }

  const int64_t ckpt_every = std::max<int64_t>(1, config.checkpoint_every);
  auto& health_monitor = obs::ModelHealthMonitor::Get();
  const std::vector<std::string> param_names = encoder->ParameterNames();
  for (int64_t epoch = start_epoch; epoch < options.epl_epochs; ++epoch) {
    SES_TRACE_SPAN("ses/phase2_epoch");
    if (ctx && ctx->faults) ctx->faults->MaybeCrash("phase2", epoch);
    util::Timer epoch_timer;
    health_monitor.BeginEpoch("SES");
    auto out = encoder->Forward(input, adj_edges, adj_mask, config.dropout,
                                /*training=*/true, rng);
    ObserveForwardHealth(*encoder, out, adj_edges);
    ag::Variable loss;
    if (options.use_triplet && pairs.size() > 0) {
      // Eq. 11: gather anchor / positive / negative rows of Ẑ.
      ag::Variable a = ag::GatherRows(out.logits, pairs.anchor);
      ag::Variable p = ag::GatherRows(out.logits, pairs.positive);
      ag::Variable n = ag::GatherRows(out.logits, pairs.negative);
      ag::Variable l_triplet = ag::TripletLoss(a, p, n, options.margin);
      if (options.use_xent_phase2) {
        ag::Variable l_xent = ag::NllLoss(ag::LogSoftmaxRows(out.logits),
                                          ds.labels, ds.train_idx);
        loss = ag::Add(ag::Scale(l_triplet, options.beta),
                       ag::Scale(l_xent, 1.0f - options.beta));
      } else {
        loss = ag::Scale(l_triplet, options.beta);
      }
    } else {
      loss = ag::NllLoss(ag::LogSoftmaxRows(out.logits), ds.labels,
                         ds.train_idx);
    }
    if (ctx && ctx->faults && ctx->faults->TakeNanLoss("phase2", epoch))
      loss.mutable_value()[0] = std::numeric_limits<float>::quiet_NaN();
    ag::Backward(loss);
    if (ctx && ctx->faults && ctx->faults->TakeNanGrad("phase2", epoch)) {
      auto params = encoder->Parameters();
      if (!params.empty()) {
        params[0].mutable_grad()[0] = std::numeric_limits<float>::quiet_NaN();
      }
    }
    const double grad_norm = optimizer.GradNorm();
    const double loss_value = loss.value()[0];
    if (health_monitor.enabled())
      obs::ObserveParamsPreStep(param_names, encoder->Parameters());
    bool stepped = false;
    switch (health.Observe(loss_value, grad_norm)) {
      case robust::HealthMonitor::Action::kProceed:
        optimizer.Step();
        stepped = true;
        if (health_monitor.enabled())
          obs::ObserveParamsPostStep(param_names, encoder->Parameters());
        break;
      case robust::HealthMonitor::Action::kRollback:
        if (ctx && ctx->mgr) {
          auto good = ctx->mgr->LoadLatest();
          if (good && good->phase == "phase2") {
            optimizer.ZeroGrad();
            restore_checkpoint(*good);
            optimizer.set_lr(optimizer.lr() * config.rollback_lr_decay);
            health.NoteRollback();
            SES_LOG_WARN << "phase-2 rollback to epoch " << good->next_epoch
                         << " with lr " << optimizer.lr();
            epoch = good->next_epoch - 1;
            continue;
          }
        }
        [[fallthrough]];
      case robust::HealthMonitor::Action::kSkip:
        optimizer.ZeroGrad();
        break;
    }
    if (stepped && !ds.val_idx.empty()) {
      const double val =
          models::Accuracy(out.logits.value(), ds.labels, ds.val_idx);
      if (val > best_val) {
        best_val = val;
        best.Capture(*encoder);
      }
    }
    obs::ModelHealthMonitor::EpochHealth epoch_health;
    if (health_monitor.enabled()) epoch_health = health_monitor.EndEpoch();
    if (obs::Telemetry::Get().active()) {
      obs::EpochRecord record;
      record.model = "SES";
      record.phase = "phase2";
      record.epoch = epoch;
      record.loss = loss_value;
      record.grad_norm = grad_norm;
      record.epoch_seconds = epoch_timer.ElapsedSeconds();
      record.val_metric = best_val;
      FillRobustCounters(&record);
      FillHealth(epoch_health, &record);
      obs::Telemetry::Get().Emit(record);
    }
    if (config.verbose)
      SES_LOG_INFO << "phase-2 epoch " << epoch << " loss " << loss_value;
    if ((epoch + 1) % ckpt_every == 0) write_checkpoint(epoch + 1);
  }
  if (!best.empty()) best.Restore(encoder);
}

}  // namespace

SesModel::SesModel(SesOptions options) : options_(std::move(options)) {}

void SesModel::Fit(const data::Dataset& ds, const models::TrainConfig& config) {
  SES_TRACE_SPAN("ses/fit");
  // Set-up: models, the k-hop table, negative sampling, the pair lists and
  // the sub-loss targets; everything before phase 1.
  std::optional<obs::ScopedSpan> setup_span;
  setup_span.emplace("ses/setup");
  config_ = config;
  util::Rng rng(config.seed + 7);
  encoder_ = models::MakeEncoder(options_.backbone, ds.num_features(),
                                 config.hidden, ds.num_classes, &rng);
  mask_generator_ =
      std::make_unique<MaskGenerator>(config.hidden, ds.num_features(), &rng);
  adj_edges_ = ds.graph.DirectedEdges(/*add_self_loops=*/true);
  khop_ = std::make_unique<graph::KHopAdjacency>(ds.graph, options_.k,
                                                 options_.max_khop_neighbors);
  // Only training labels may steer negative sampling (semi-supervised).
  std::vector<int64_t> train_labels(static_cast<size_t>(ds.num_nodes()), -1);
  for (int64_t i : ds.train_idx)
    train_labels[static_cast<size_t>(i)] = ds.labels[static_cast<size_t>(i)];
  graph::NegativeSets negatives =
      graph::SampleNegativeSets(*khop_, train_labels, &rng);
  // The k-hop pair list (Idx, Eq. 5), built once and freed when Fit returns.
  const ag::EdgeListPtr khop_pairs = khop_->PairEdges();

  // Negative pair list aligned one-to-one with P_n.
  const int64_t nk = khop_->num_pairs();
  auto neg_pairs = std::make_shared<ag::EdgeList>();
  neg_pairs->num_nodes = ds.num_nodes();
  for (int64_t i = 0; i < ds.num_nodes(); ++i) {
    for (int64_t v : negatives.Of(i)) {
      neg_pairs->src.push_back(i);
      neg_pairs->dst.push_back(v);
    }
  }
  // Subgraph-loss targets (Eq. 7): Y_s / Y_sneg are derived from node
  // labels. A real k-hop pair is a positive when its endpoints agree in
  // structural role — same class, or both in minority ("motif") classes; a
  // base-class <-> motif-class pair and every sampled negative is a 0. Only
  // pairs whose endpoints both carry a training label contribute (the task
  // is semi-supervised; val/test labels must not leak into training).
  std::vector<bool> in_train(static_cast<size_t>(ds.num_nodes()), false);
  for (int64_t i : ds.train_idx) in_train[static_cast<size_t>(i)] = true;
  std::vector<int64_t> class_count(static_cast<size_t>(ds.num_classes), 0);
  for (int64_t i : ds.train_idx)
    ++class_count[static_cast<size_t>(ds.labels[static_cast<size_t>(i)])];
  const int64_t avg_count =
      static_cast<int64_t>(ds.train_idx.size()) / std::max<int64_t>(1, ds.num_classes);
  auto is_minority = [&](int64_t node) {
    return class_count[static_cast<size_t>(ds.labels[static_cast<size_t>(node)])] <
           avg_count;
  };
  std::vector<int64_t> sub_keep;
  std::vector<float> sub_target_values;
  {
    const auto& kp = *khop_pairs;
    for (int64_t e = 0; e < nk; ++e) {
      const int64_t i = kp.src[static_cast<size_t>(e)];
      const int64_t j = kp.dst[static_cast<size_t>(e)];
      if (!in_train[static_cast<size_t>(i)] || !in_train[static_cast<size_t>(j)])
        continue;
      const bool affine = ds.labels[static_cast<size_t>(i)] ==
                              ds.labels[static_cast<size_t>(j)] ||
                          (is_minority(i) && is_minority(j));
      sub_keep.push_back(e);
      sub_target_values.push_back(affine ? 1.0f : 0.0f);
    }
    for (int64_t e = 0; e < neg_pairs->size(); ++e) {
      const int64_t i = neg_pairs->src[static_cast<size_t>(e)];
      const int64_t j = neg_pairs->dst[static_cast<size_t>(e)];
      if (!in_train[static_cast<size_t>(i)] || !in_train[static_cast<size_t>(j)])
        continue;
      sub_keep.push_back(nk + e);
      sub_target_values.push_back(0.0f);
    }
  }
  t::Tensor sub_target(static_cast<int64_t>(sub_target_values.size()), 1);
  for (size_t i = 0; i < sub_target_values.size(); ++i)
    sub_target[static_cast<int64_t>(i)] = sub_target_values[i];

  const ag::EdgeListPtr khop_support = WithSelfLoops(*khop_pairs);
  nn::FeatureInput plain_input = models::MakeInput(ds);

  std::vector<ag::Variable> params = encoder_->Parameters();
  {
    auto mg = mask_generator_->Parameters();
    params.insert(params.end(), mg.begin(), mg.end());
  }
  nn::Adam optimizer(params, config.lr, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  optimizer.set_max_grad_norm(config.max_grad_norm);

  // ------------------------------------------------- fault-tolerance wiring
  std::unique_ptr<robust::CheckpointManager> ckpt_mgr;
  if (!config.checkpoint_dir.empty())
    ckpt_mgr = std::make_unique<robust::CheckpointManager>(
        config.checkpoint_dir, config.checkpoint_keep);
  robust::FaultPlan faults = robust::FaultPlan::FromEnv();
  robust::HealthMonitor health(
      {config.max_bad_steps, config.rollback_lr_decay});
  const int64_t ckpt_every = std::max<int64_t>(1, config.checkpoint_every);

  setup_span.reset();

  // ---------------------------------------------------------------- phase 1
  util::Timer timer;
  loss_history_.clear();
  mask_snapshots_.clear();
  models::ParameterSnapshot best;
  models::ParameterSnapshot best_masks;
  double best_val = -1.0;

  // Everything the phase-1 loop mutates between epochs goes into (or comes
  // back out of) one checkpoint, so a killed-and-resumed run replays the
  // remaining epochs bitwise identically to an uninterrupted one.
  auto make_phase1_checkpoint = [&](int64_t next_epoch) {
    robust::TrainingCheckpoint c;
    c.model = name();
    c.phase = "phase1";
    c.next_epoch = next_epoch;
    c.params = SnapshotParams(params);
    c.optim.step_count = optimizer.step_count();
    c.optim.m = optimizer.moment1();
    c.optim.v = optimizer.moment2();
    c.rng = rng.State();
    c.best_val = best_val;
    c.lr = optimizer.lr();
    if (!best.empty()) {
      c.tensor_lists["best_encoder"] = best.values();
      c.tensor_lists["best_masks"] = best_masks.values();
    }
    c.double_lists["loss_history"] = FlattenHistory(loss_history_);
    c.tensor_lists["mask_snapshots"] = mask_snapshots_;
    return c;
  };
  auto restore_phase1_checkpoint = [&](const robust::TrainingCheckpoint& c) {
    RestoreParams(params, c.params);
    optimizer.RestoreState(c.optim.step_count, c.optim.m, c.optim.v);
    optimizer.set_lr(c.lr);
    rng.SetState(c.rng);
    best_val = c.best_val;
    if (auto it = c.tensor_lists.find("best_encoder");
        it != c.tensor_lists.end()) {
      best.set_values(it->second);
      best_masks.set_values(c.tensor_lists.at("best_masks"));
    } else {
      best.set_values({});
      best_masks.set_values({});
    }
    if (auto it = c.double_lists.find("loss_history");
        it != c.double_lists.end())
      loss_history_ = UnflattenHistory(it->second);
    if (auto it = c.tensor_lists.find("mask_snapshots");
        it != c.tensor_lists.end())
      mask_snapshots_ = it->second;
  };

  int64_t start_epoch = 0;
  std::optional<robust::TrainingCheckpoint> resumed;
  if (ckpt_mgr && config.auto_resume) resumed = ckpt_mgr->LoadLatest();
  const bool resume_phase2 = resumed && resumed->phase == "phase2";
  if (resumed && resumed->phase == "phase1") {
    restore_phase1_checkpoint(*resumed);
    start_epoch = resumed->next_epoch;
    SES_LOG_INFO << name() << " resuming phase 1 at epoch " << start_epoch
                 << " from " << config.checkpoint_dir;
  }

  if (!resume_phase2) {
    const float alpha = options_.alpha;
    std::optional<obs::ScopedSpan> phase1_span;
    phase1_span.emplace("ses/phase1");
    auto& health_monitor = obs::ModelHealthMonitor::Get();
    // Names aligned with `params` (encoder then mask generator).
    std::vector<std::string> param_names = encoder_->ParameterNames();
    for (const std::string& n : mask_generator_->ParameterNames())
      param_names.push_back("maskgen." + n);
    util::Timer block_timer;  // verbose reporting: time per 20-epoch block
    for (int64_t epoch = start_epoch; epoch < config.epochs; ++epoch) {
      SES_TRACE_SPAN("ses/phase1_epoch");
      faults.MaybeCrash("phase1", epoch);
      util::Timer epoch_timer;
      health_monitor.BeginEpoch(name());
      // Plain pass: Z and H (Eq. 2).
      auto out = encoder_->Forward(plain_input, adj_edges_, {}, config.dropout,
                                   /*training=*/true, &rng);
      ObserveForwardHealth(*encoder_, out, adj_edges_);
      ag::Variable l_xent = ag::NllLoss(ag::LogSoftmaxRows(out.logits),
                                        ds.labels, ds.train_idx);

      // Masks from H (Eqs. 3-5).
      ag::Variable m_s = mask_generator_->StructureMask(out.hidden,
                                                        khop_pairs);
      ag::Variable m_sneg =
          mask_generator_->StructureMask(out.hidden, neg_pairs);
      ag::Variable stacked = ag::ConcatRows(m_s, m_sneg);
      ag::Variable l_sub =
          ag::Scale(ag::L1Loss(ag::GatherRows(stacked, sub_keep), sub_target),
                    options_.lambda_sub);
      if (options_.lambda_size > 0.0f)
        l_sub =
            ag::Add(l_sub, ag::Scale(ag::MeanAll(m_s), options_.lambda_size));
      if (options_.lambda_entropy > 0.0f) {
        // Bernoulli element entropy -m log m - (1-m) log(1-m), pushing mask
        // entries toward the {0, 1} poles.
        ag::Variable one_minus = ag::AddScalar(ag::Neg(m_s), 1.0f);
        ag::Variable entropy =
            ag::Neg(ag::Add(ag::Mul(m_s, ag::Log(m_s)),
                            ag::Mul(one_minus, ag::Log(one_minus))));
        l_sub = ag::Add(
            l_sub, ag::Scale(ag::MeanAll(entropy), options_.lambda_entropy));
      }

      ag::Variable m_f;
      if (options_.use_feature_mask) {
        m_f = mask_generator_->FeatureMask(out.hidden, ds.features);
        if (options_.lambda_feat_size > 0.0f)
          l_sub = ag::Add(l_sub, ag::Scale(ag::MeanAll(m_f),
                                           options_.lambda_feat_size));
      }

      // Masked pass Z_m = GE(M_f ⊙ X, M̂_s ⊙ A^(k)) (Eq. 8).
      ag::Variable loss;
      if (options_.use_mask_xent) {
        nn::FeatureInput masked_input =
            options_.use_feature_mask
                ? nn::FeatureInput::Sparse(ds.features, m_f)
                : plain_input;
        ag::Variable khop_mask = MaskWithSelfLoops(m_s, ds.num_nodes());
        auto masked_out = encoder_->Forward(
            masked_input, khop_support, khop_mask, config.dropout,
            /*training=*/true, &rng, /*renormalize_mask=*/false);
        ag::Variable l_mask_xent = ag::NllLoss(
            ag::LogSoftmaxRows(masked_out.logits), ds.labels, ds.train_idx);
        loss = ag::Add(ag::Scale(ag::Add(l_sub, l_mask_xent), alpha),
                       ag::Scale(l_xent, 1.0f - alpha));
      } else {
        loss =
            ag::Add(ag::Scale(l_sub, alpha), ag::Scale(l_xent, 1.0f - alpha));
      }
      if (faults.TakeNanLoss("phase1", epoch))
        loss.mutable_value()[0] = std::numeric_limits<float>::quiet_NaN();
      ag::Backward(loss);
      if (faults.TakeNanGrad("phase1", epoch) && !params.empty())
        params[0].mutable_grad()[0] = std::numeric_limits<float>::quiet_NaN();
      const double grad_norm = optimizer.GradNorm();
      const double loss_value = loss.value()[0];
      if (health_monitor.enabled())
        obs::ObserveParamsPreStep(param_names, params);
      bool stepped = false;
      switch (health.Observe(loss_value, grad_norm)) {
        case robust::HealthMonitor::Action::kProceed:
          optimizer.Step();
          stepped = true;
          if (health_monitor.enabled())
            obs::ObserveParamsPostStep(param_names, params);
          break;
        case robust::HealthMonitor::Action::kRollback:
          if (ckpt_mgr) {
            auto good = ckpt_mgr->LoadLatest();
            if (good && good->phase == "phase1") {
              optimizer.ZeroGrad();
              restore_phase1_checkpoint(*good);
              optimizer.set_lr(optimizer.lr() * config.rollback_lr_decay);
              health.NoteRollback();
              SES_LOG_WARN << name() << " phase-1 rollback to epoch "
                           << good->next_epoch << " with lr "
                           << optimizer.lr();
              epoch = good->next_epoch - 1;
              continue;
            }
          }
          [[fallthrough]];
        case robust::HealthMonitor::Action::kSkip:
          optimizer.ZeroGrad();
          break;
      }

      // Bookkeeping for Fig. 7 and best-val selection.
      double val_loss = 0.0;
      if (!ds.val_idx.empty()) {
        ag::Variable vl = ag::NllLoss(ag::LogSoftmaxRows(out.logits), ds.labels,
                                      ds.val_idx);
        val_loss = vl.value()[0];
        if (stepped) {
          const double val_acc = models::Accuracy(out.logits.value(), ds.labels,
                                                  ds.val_idx);
          if (val_acc > best_val) {
            best_val = val_acc;
            best.Capture(*encoder_);
            best_masks.Capture(*mask_generator_);
          }
        }
      }
      loss_history_.push_back(
          {static_cast<double>(epoch), loss_value, val_loss});
      if (options_.use_feature_mask &&
          (epoch == 0 || epoch == config.epochs / 2 ||
           epoch == config.epochs - 1))
        mask_snapshots_.push_back(m_f.value());
      obs::ModelHealthMonitor::EpochHealth epoch_health;
      if (health_monitor.enabled()) epoch_health = health_monitor.EndEpoch();
      if (obs::Telemetry::Get().active()) {
        obs::EpochRecord record;
        record.model = name();
        record.phase = "phase1";
        record.epoch = epoch;
        record.loss = loss_value;
        record.grad_norm = grad_norm;
        record.epoch_seconds = epoch_timer.ElapsedSeconds();
        record.val_metric = best_val;
        FillRobustCounters(&record);
        FillHealth(epoch_health, &record);
        obs::Telemetry::Get().Emit(record);
      }
      if (config.verbose && epoch % 20 == 0) {
        SES_LOG_INFO << name() << " phase-1 epoch " << epoch << " loss "
                     << loss_value << " ("
                     << util::FormatDuration(block_timer.ElapsedSeconds())
                     << " for last block)";
        block_timer.Reset();
      }
      if (ckpt_mgr && (epoch + 1) % ckpt_every == 0) {
        const std::string path =
            ckpt_mgr->Write(make_phase1_checkpoint(epoch + 1));
        faults.MaybeCorruptCheckpoint("phase1", epoch + 1, path);
      }
    }
    phase1_span.reset();
    // Restore the best-validation encoder AND the matching mask generator so
    // the frozen masks are coherent with the restored encoder's H.
    if (!best.empty()) {
      best.Restore(encoder_.get());
      best_masks.Restore(mask_generator_.get());
    }
  }
  et_seconds_ = timer.ElapsedSeconds();

  // -------------------------------------------- freeze masks (inference)
  timer.Reset();
  if (!resume_phase2) {
    SES_TRACE_SPAN("ses/freeze_masks");
    // Mask freezing only reads values out of the forward; no gradient flows
    // back, so the whole readout runs tape-free.
    ag::InferenceGuard no_grad;
    auto out = encoder_->Forward(plain_input, adj_edges_, {}, 0.0f,
                                 /*training=*/false, &rng);
    if (options_.use_feature_mask)
      masks_.feature_nnz =
          mask_generator_->FeatureMask(out.hidden, ds.features).value();
    masks_.structure_khop =
        mask_generator_->StructureMask(out.hidden, khop_pairs).value();
    // Mask over the 1-hop support (self-loop entries fixed at 1).
    ag::Variable adj_mask =
        mask_generator_->StructureMask(out.hidden, adj_edges_);
    masks_.structure_adj = adj_mask.value();
    for (int64_t e = 0; e < adj_edges_->size(); ++e)
      if (adj_edges_->src[static_cast<size_t>(e)] ==
          adj_edges_->dst[static_cast<size_t>(e)])
        masks_.structure_adj[e] = 1.0f;
  }
  inference_seconds_ = timer.ElapsedSeconds();

  // ---------------------------------------------------------------- phase 2
  timer.Reset();
  PosNegPairs pairs;
  Phase2Context ctx;
  ctx.mgr = ckpt_mgr.get();
  ctx.faults = &faults;
  if (resume_phase2) {
    const robust::TrainingCheckpoint& c = *resumed;
    masks_.feature_nnz = c.tensors.at("masks.feature_nnz");
    masks_.structure_khop = c.tensors.at("masks.structure_khop");
    masks_.structure_adj = c.tensors.at("masks.structure_adj");
    pairs.anchor = c.int_lists.at("pairs.anchor");
    pairs.positive = c.int_lists.at("pairs.positive");
    pairs.negative = c.int_lists.at("pairs.negative");
    if (auto it = c.double_lists.find("loss_history");
        it != c.double_lists.end())
      loss_history_ = UnflattenHistory(it->second);
    if (auto it = c.tensor_lists.find("mask_snapshots");
        it != c.tensor_lists.end())
      mask_snapshots_ = it->second;
    ctx.resume = &c;
    SES_LOG_INFO << name() << " skipping phase 1 (phase-2 checkpoint found in "
                 << config.checkpoint_dir << ")";
  } else {
    pairs = ConstructPairs(*khop_, masks_.structure_khop, negatives,
                           options_.sample_ratio, &rng);
  }
  ctx.base.model = name();
  ctx.base.phase = "phase2";
  ctx.base.tensors["masks.feature_nnz"] = masks_.feature_nnz;
  ctx.base.tensors["masks.structure_khop"] = masks_.structure_khop;
  ctx.base.tensors["masks.structure_adj"] = masks_.structure_adj;
  ctx.base.int_lists["pairs.anchor"] = pairs.anchor;
  ctx.base.int_lists["pairs.positive"] = pairs.positive;
  ctx.base.int_lists["pairs.negative"] = pairs.negative;
  ctx.base.double_lists["loss_history"] = FlattenHistory(loss_history_);
  ctx.base.tensor_lists["mask_snapshots"] = mask_snapshots_;
  Phase2LoopImpl(encoder_.get(), ds, masks_, pairs, options_, config, &rng,
                 &ctx);
  epl_seconds_ = timer.ElapsedSeconds();
}

void SesModel::EnhancedPredictiveLearning(
    models::Encoder* encoder, const data::Dataset& ds,
    const FrozenMasks& masks, const PosNegPairs& pairs,
    const SesOptions& options, const models::TrainConfig& config,
    util::Rng* rng) {
  Phase2LoopImpl(encoder, ds, masks, pairs, options, config, rng, nullptr);
}

models::Encoder::Output SesModel::EvalForward(const data::Dataset& ds) const {
  SES_CHECK(encoder_ != nullptr);
  ag::InferenceGuard no_grad;
  util::Rng rng(0);
  nn::FeatureInput input =
      (options_.use_feature_mask && masks_.feature_nnz.size() > 0)
          ? nn::FeatureInput::Sparse(
                ds.features, ag::Variable::Constant(masks_.feature_nnz))
          : models::MakeInput(ds);
  ag::Variable adj_mask;
  if (options_.use_structure_mask && masks_.structure_adj.size() > 0)
    adj_mask = ag::Variable::Constant(masks_.structure_adj);
  return encoder_->Forward(input, adj_edges_, adj_mask, 0.0f,
                           /*training=*/false, &rng);
}

tensor::Tensor SesModel::Logits(const data::Dataset& ds) {
  return EvalForward(ds).logits.value();
}

tensor::Tensor SesModel::Embeddings(const data::Dataset& ds) {
  return EvalForward(ds).hidden.value();
}

std::vector<float> SesModel::EdgeScores(const data::Dataset& ds) const {
  SES_CHECK(masks_.structure_khop.size() > 0);
  const auto& edges = ds.graph.edges();
  std::vector<float> scores(edges.size(), 0.0f);
  // The k-hop pair list contains (u, v) and (v, u) for 1-hop edges; average
  // the two directions.
  for (size_t idx = 0; idx < edges.size(); ++idx) {
    auto [u, v] = edges[idx];
    float total = 0.0f;
    int count = 0;
    for (auto [a, b] : {std::make_pair(u, v), std::make_pair(v, u)}) {
      const auto nbrs = khop_->Neighbors(a);
      const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), b);
      if (it != nbrs.end() && *it == b) {
        const int64_t pair_idx =
            khop_->PairOffset(a) + (it - nbrs.begin());
        total += masks_.structure_khop[pair_idx];
        ++count;
      }
    }
    scores[idx] = count > 0 ? total / static_cast<float>(count) : 0.0f;
  }
  return scores;
}

}  // namespace ses::core
