#include "core/ses_model.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "models/train_loop.h"
#include "obs/trace.h"
#include "robust/checkpoint.h"
#include "robust/fault.h"
#include "tensor/ops.h"
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

/// Phase 2 (Eq. 13). SesModel::Fit passes its checkpointing in `recovery`
/// and, when it resumes inside phase 2, the checkpoint in `resume`; the
/// public EnhancedPredictiveLearning entry point (the +{epl} ablation)
/// passes neither.
void Phase2LoopImpl(models::Encoder* encoder, const data::Dataset& ds,
                    const FrozenMasks& masks,
                    const std::shared_ptr<const PosNegPairs>& pairs,
                    const SesOptions& options,
                    const models::TrainConfig& config, util::Rng* rng,
                    const std::string& model, models::Recovery recovery = {},
                    const robust::TrainingCheckpoint* resume = nullptr) {
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

  models::TrainLoop loop(model, "phase2", encoder->Parameters(),
                         encoder->ParameterNames(), config, rng,
                         std::move(recovery));
  int64_t start_epoch = 0;
  if (resume) {
    start_epoch = loop.Resume(*resume);
  } else {
    // Baseline: the phase-1 encoder itself (under masked inference). Phase 2
    // keeps whatever validates best, so it can refine but never regress.
    if (!ds.val_idx.empty()) {
      ag::InferenceGuard no_grad;
      auto initial = encoder->Forward(input, adj_edges, adj_mask, 0.0f,
                                      /*training=*/false, rng);
      loop.OfferBest(
          models::Accuracy(initial.logits.value(), ds.labels, ds.val_idx));
    }
    // Phase-boundary checkpoint: a kill inside phase 2 must never have to
    // replay phase 1.
    loop.WriteCheckpoint(0);
  }

  loop.Run(start_epoch, options.epl_epochs, "ses/phase2_epoch", [&](int64_t) {
    auto out = encoder->Forward(input, adj_edges, adj_mask, config.dropout,
                                /*training=*/true, rng);
    models::ObserveForwardHealth(*encoder, out, *adj_edges);
    ag::Variable loss;
    if (options.use_triplet && pairs->size() > 0) {
      // Eqs. 11-12 over the anchor / positive / negative rows of Ẑ.
      ag::Variable l_triplet =
          ag::TripletLoss(out.logits, pairs, options.margin);
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
    if (loop.Step(loss) == models::TrainLoop::Verdict::kStepped &&
        !ds.val_idx.empty())
      loop.OfferBest(
          models::Accuracy(out.logits.value(), ds.labels, ds.val_idx));
  });
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

  // Phase 1 trains the encoder and the mask generator together; names
  // align with the parameters (encoder then mask generator).
  std::vector<ag::Variable> params = encoder_->Parameters();
  std::vector<std::string> param_names = encoder_->ParameterNames();
  for (const auto& p : mask_generator_->Parameters()) params.push_back(p);
  for (const std::string& n : mask_generator_->ParameterNames())
    param_names.push_back("maskgen." + n);

  // ------------------------------------------------- fault-tolerance wiring
  std::unique_ptr<robust::CheckpointManager> ckpt_mgr;
  if (!config.checkpoint_dir.empty())
    ckpt_mgr = std::make_unique<robust::CheckpointManager>(
        config.checkpoint_dir, config.checkpoint_keep);
  robust::FaultPlan faults = robust::FaultPlan::FromEnv();
  // The phase-1 history (Fig. 7) rides in every checkpoint of both phases,
  // so a resumed run reports what an uninterrupted one does.
  auto save_history = [this](robust::TrainingCheckpoint* c) {
    c->double_lists["loss_history"] = FlattenHistory(loss_history_);
    c->tensor_lists["mask_snapshots"] = mask_snapshots_;
  };
  auto restore_history = [this](const robust::TrainingCheckpoint& c) {
    if (auto it = c.double_lists.find("loss_history");
        it != c.double_lists.end())
      loss_history_ = UnflattenHistory(it->second);
    if (auto it = c.tensor_lists.find("mask_snapshots");
        it != c.tensor_lists.end())
      mask_snapshots_ = it->second;
  };
  models::TrainLoop phase1(name(), "phase1", std::move(params),
                           std::move(param_names), config, &rng,
                           {ckpt_mgr.get(), &faults, save_history,
                            restore_history});

  setup_span.reset();

  // ---------------------------------------------------------------- phase 1
  util::Timer timer;
  loss_history_.clear();
  mask_snapshots_.clear();
  int64_t start_epoch = 0;
  std::optional<robust::TrainingCheckpoint> resumed;
  if (ckpt_mgr && config.auto_resume) resumed = ckpt_mgr->LoadLatest();
  const bool resume_phase2 = resumed && resumed->phase == "phase2";
  if (resumed && resumed->phase == "phase1")
    start_epoch = phase1.Resume(*resumed);

  if (!resume_phase2) {
    SES_TRACE_SPAN("ses/phase1");
    const float alpha = options_.alpha;
    // Run ends by restoring the best-validation encoder AND the matching
    // mask generator, so the frozen masks are coherent with the encoder's H.
    phase1.Run(start_epoch, config.epochs, "ses/phase1_epoch",
               [&](int64_t epoch) {
      // Plain pass: Z and H (Eq. 2).
      auto out = encoder_->Forward(plain_input, adj_edges_, {}, config.dropout,
                                   /*training=*/true, &rng);
      models::ObserveForwardHealth(*encoder_, out, *adj_edges_);
      ag::Variable l_xent = ag::NllLoss(ag::LogSoftmaxRows(out.logits),
                                        ds.labels, ds.train_idx);

      // Masks from H (Eqs. 3-5), both pair lists scored from one projection.
      ag::Variable hp = mask_generator_->Project(out.hidden);
      ag::Variable m_s = mask_generator_->ScorePairs(hp, khop_pairs);
      ag::Variable m_sneg = mask_generator_->ScorePairs(hp, neg_pairs);
      ag::Variable stacked = ag::ConcatRows(m_s, m_sneg);
      ag::Variable l_sub =
          ag::Scale(ag::L1Loss(ag::GatherRows(stacked, sub_keep), sub_target),
                    options_.lambda_sub);
      // Mask size, and the Bernoulli element entropy that pushes mask
      // entries toward the {0, 1} poles.
      l_sub = ag::Add(l_sub, ag::MaskRegularizer(m_s, options_.lambda_size,
                                                 options_.lambda_entropy));

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
      const models::TrainLoop::Verdict verdict = phase1.Step(loss);
      if (verdict == models::TrainLoop::Verdict::kRolledBack) return;

      // Bookkeeping for Fig. 7 and best-val selection.
      double val_loss = 0.0;
      if (!ds.val_idx.empty()) {
        ag::Variable vl = ag::NllLoss(ag::LogSoftmaxRows(out.logits), ds.labels,
                                      ds.val_idx);
        val_loss = vl.value()[0];
        if (verdict == models::TrainLoop::Verdict::kStepped)
          phase1.OfferBest(
              models::Accuracy(out.logits.value(), ds.labels, ds.val_idx));
      }
      // Step may have poisoned the loss value in place (fault injection).
      loss_history_.push_back(
          {static_cast<double>(epoch), loss.value()[0], val_loss});
      if (options_.use_feature_mask &&
          (epoch == 0 || epoch == config.epochs / 2 ||
           epoch == config.epochs - 1))
        mask_snapshots_.push_back(m_f.value());
    });
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
    const ag::Variable hp = mask_generator_->Project(out.hidden);
    masks_.structure_khop =
        mask_generator_->ScorePairs(hp, khop_pairs).value();
    // Mask over the 1-hop support (self-loop entries fixed at 1).
    ag::Variable adj_mask = mask_generator_->ScorePairs(hp, adj_edges_);
    masks_.structure_adj = adj_mask.value();
    for (int64_t e = 0; e < adj_edges_->size(); ++e)
      if (adj_edges_->src[static_cast<size_t>(e)] ==
          adj_edges_->dst[static_cast<size_t>(e)])
        masks_.structure_adj[e] = 1.0f;
  }
  inference_seconds_ = timer.ElapsedSeconds();

  // ---------------------------------------------------------------- phase 2
  timer.Reset();
  auto pairs = std::make_shared<PosNegPairs>();
  if (resume_phase2) {
    const robust::TrainingCheckpoint& c = *resumed;
    masks_.feature_nnz = c.tensors.at("masks.feature_nnz");
    masks_.structure_khop = c.tensors.at("masks.structure_khop");
    masks_.structure_adj = c.tensors.at("masks.structure_adj");
    pairs->anchor = c.int_lists.at("pairs.anchor");
    pairs->positive = c.int_lists.at("pairs.positive");
    pairs->negative = c.int_lists.at("pairs.negative");
    restore_history(c);
    SES_LOG_INFO << name() << " skipping phase 1 (phase-2 checkpoint found in "
                 << config.checkpoint_dir << ")";
  } else {
    *pairs = ConstructPairs(*khop_, masks_.structure_khop, negatives,
                            options_.sample_ratio, &rng);
  }
  // Phase-2 checkpoints carry what a resumed run cannot recompute: the
  // frozen masks, the pair lists and the phase-1 history.
  auto save_phase2 = [&](robust::TrainingCheckpoint* c) {
    c->tensors["masks.feature_nnz"] = masks_.feature_nnz;
    c->tensors["masks.structure_khop"] = masks_.structure_khop;
    c->tensors["masks.structure_adj"] = masks_.structure_adj;
    c->int_lists["pairs.anchor"] = pairs->anchor;
    c->int_lists["pairs.positive"] = pairs->positive;
    c->int_lists["pairs.negative"] = pairs->negative;
    save_history(c);
  };
  Phase2LoopImpl(encoder_.get(), ds, masks_, pairs, options_, config, &rng,
                 name(), {ckpt_mgr.get(), &faults, save_phase2, nullptr},
                 resume_phase2 ? &*resumed : nullptr);
  epl_seconds_ = timer.ElapsedSeconds();
}

void SesModel::EnhancedPredictiveLearning(
    models::Encoder* encoder, const data::Dataset& ds,
    const FrozenMasks& masks, const PosNegPairs& pairs,
    const SesOptions& options, const models::TrainConfig& config,
    util::Rng* rng) {
  Phase2LoopImpl(encoder, ds, masks, std::make_shared<const PosNegPairs>(pairs),
                 options, config, rng, "SES");
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
