// Reproduces Table 10: ablation studies of SES on the real-world datasets —
// -{M_f}, -{M̂_s}, -{L_xent}, -{Triplet}, the GNNExplainer/PGExplainer
// +{epl} hybrids, and full SES, for both backbones.
#include <cstdio>
#include <functional>

#include "bench_common.h"
#include "explain/gnn_explainer.h"
#include "explain/pg_explainer.h"
#include "graph/sampling.h"
#include "metrics/metrics.h"
#include "util/table.h"

using namespace ses;

namespace {

/// Runs the +{epl} hybrid: train a plain backbone, produce masks with a
/// post-hoc explainer, then run SES's enhanced predictive learning on them.
double RunPostHocEpl(const data::Dataset& ds, const std::string& backbone,
                     const std::string& which,
                     const models::TrainConfig& cfg,
                     const bench::Profile& profile) {
  models::BackboneModel base(backbone);
  base.Fit(ds, cfg);
  core::SesOptions opt;
  opt.backbone = backbone;

  // Build FrozenMasks from the explainer's edge scores (structure) — these
  // explainers do not emit per-nonzero feature masks usable here, matching
  // the paper's setup where only the masks they can provide are injected.
  std::vector<float> edge_scores;
  std::vector<float> feat_scores;
  if (which == "GEX") {
    explain::GnnExplainer::Options gopt;
    gopt.epochs = profile.full ? 100 : 40;
    explain::GnnExplainer gex(base.encoder(), gopt);
    auto nodes = explain::NodesToExplain(ds, profile.explain_nodes_cap);
    edge_scores = gex.ExplainEdges(ds, nodes);
    feat_scores = gex.ExplainFeaturesNnz(ds, nodes);
  } else {
    explain::PgExplainer pge(base.encoder());
    edge_scores = pge.ExplainEdges(ds);
  }

  core::FrozenMasks masks;
  if (!feat_scores.empty()) {
    masks.feature_nnz = tensor::Tensor(
        static_cast<int64_t>(feat_scores.size()), 1);
    for (size_t i = 0; i < feat_scores.size(); ++i)
      masks.feature_nnz[static_cast<int64_t>(i)] =
          feat_scores[i] > 0.0f ? feat_scores[i] : 1.0f;
  }
  // Edge scores -> per-directed-edge mask over A + self-loops.
  auto edges = ds.graph.DirectedEdges(true);
  masks.structure_adj = tensor::Tensor(edges->size(), 1);
  masks.structure_adj.Fill(1.0f);
  for (size_t i = 0; i < edge_scores.size(); ++i) {
    masks.structure_adj[2 * static_cast<int64_t>(i)] = edge_scores[i];
    masks.structure_adj[2 * static_cast<int64_t>(i) + 1] = edge_scores[i];
  }
  // Pairs from the post-hoc structure scores over the k-hop neighborhood
  // (1-hop edges carry the post-hoc score; farther pairs a neutral 0.5).
  util::Rng rng(cfg.seed + 3);
  graph::KHopAdjacency khop(ds.graph, opt.k, opt.max_khop_neighbors);
  std::vector<int64_t> train_labels(static_cast<size_t>(ds.num_nodes()), -1);
  for (int64_t i : ds.train_idx)
    train_labels[static_cast<size_t>(i)] = ds.labels[static_cast<size_t>(i)];
  graph::NegativeSets negatives =
      graph::SampleNegativeSets(khop, train_labels, &rng);
  tensor::Tensor khop_mask(khop.num_pairs(), 1);
  khop_mask.Fill(0.5f);
  const auto& und = ds.graph.edges();
  for (size_t e = 0; e < und.size(); ++e) {
    for (auto [a, b] : {und[e], std::make_pair(und[e].second, und[e].first)}) {
      auto nbrs = khop.Neighbors(a);
      auto it = std::lower_bound(nbrs.begin(), nbrs.end(), b);
      if (it != nbrs.end() && *it == b)
        khop_mask[khop.PairOffset(a) + (it - nbrs.begin())] = edge_scores[e];
    }
  }
  core::PosNegPairs pairs =
      core::ConstructPairs(khop, khop_mask, negatives, opt.sample_ratio, &rng);

  // Clone the trained encoder into a fresh one we can fine-tune.
  util::Rng r2(cfg.seed + 5);
  auto encoder = models::MakeEncoder(backbone, ds.num_features(), cfg.hidden,
                                     ds.num_classes, &r2);
  encoder->CopyParametersFrom(*base.encoder());
  core::SesModel::EnhancedPredictiveLearning(encoder.get(), ds, masks, pairs,
                                             opt, cfg, &rng);
  util::Rng r3(0);
  nn::FeatureInput input =
      masks.feature_nnz.size() > 0
          ? nn::FeatureInput::Sparse(
                ds.features,
                autograd::Variable::Constant(masks.feature_nnz))
          : models::MakeInput(ds);
  auto out = encoder->Forward(input, edges,
                              autograd::Variable::Constant(masks.structure_adj),
                              0.0f, false, &r3);
  return 100.0 * models::Accuracy(out.logits.value(), ds.labels, ds.test_idx);
}

}  // namespace

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  obs::Session obs_session(flags);
  bench::Profile profile = bench::Profile::FromFlags(flags);
  std::printf("[Table 10] %s\n", profile.Describe().c_str());

  const char* datasets[] = {"Cora", "CiteSeer", "PolBlogs", "CS"};
  util::Table table("Table 10: Ablation studies of SES");
  table.SetHeader({"Variant", "Cora", "CiteSeer", "PolBlogs", "CS"});

  struct Variant {
    std::string label;
    std::function<void(core::SesOptions*)> apply;
  };
  const std::vector<Variant> variants = {
      {"-{M_f}", [](core::SesOptions* o) { o->use_feature_mask = false; }},
      {"-{M_s}", [](core::SesOptions* o) { o->use_structure_mask = false; }},
      {"-{L_xent}", [](core::SesOptions* o) { o->use_xent_phase2 = false; }},
      {"-{Triplet}", [](core::SesOptions* o) { o->use_triplet = false; }},
      {"full", [](core::SesOptions*) {}},
  };

  for (const std::string backbone : {"GCN", "GAT"}) {
    for (const auto& variant : variants) {
      std::vector<std::string> row{"SES (" + backbone + ") " + variant.label};
      for (const char* dataset : datasets) {
        auto ds = data::MakeRealWorldByName(dataset, profile.real_scale, 1);
        core::SesOptions opt;
        opt.backbone = backbone;
        variant.apply(&opt);
        core::SesModel ses(opt);
        ses.Fit(ds, profile.MakeTrainConfig(1));
        row.push_back(util::Table::Num(
            100.0 * models::Accuracy(ses.Logits(ds), ds.labels, ds.test_idx),
            2));
        std::fprintf(stderr, "  %s %s %s done\n", backbone.c_str(),
                     variant.label.c_str(), dataset);
      }
      table.AddRow(row);
    }
    for (const std::string which : {"GEX", "PGE"}) {
      std::vector<std::string> row{which + " (" + backbone + ") +{epl}"};
      for (const char* dataset : datasets) {
        auto ds = data::MakeRealWorldByName(dataset, profile.real_scale, 1);
        row.push_back(util::Table::Num(
            RunPostHocEpl(ds, backbone, which, profile.MakeTrainConfig(1),
                          profile),
            2));
        std::fprintf(stderr, "  %s %s+epl %s done\n", backbone.c_str(),
                     which.c_str(), dataset);
      }
      table.AddRow(row);
    }
  }
  table.Print();
  table.WriteCsv(bench::ArtifactDir() + "/table10_ablation.csv");
  return 0;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
