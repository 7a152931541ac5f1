// Reproduces Table 5: Fidelity+ (%) of feature explanations on the
// real-world datasets — GNNExplainer, GraphLIME, SES and the SES -{L^m_xent}
// ablation, on both GCN and GAT backbones. Top-5 features per node are
// removed, per the paper's protocol for sparse citation features.
#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "explain/gnn_explainer.h"
#include "explain/graphlime.h"
#include "metrics/fidelity.h"
#include "util/table.h"

using namespace ses;

namespace {

const char* kDatasets[] = {"Cora", "CiteSeer", "PolBlogs", "CS"};

const std::map<std::string, std::map<std::string, double>> kPaper = {
    {"Cora", {{"GNNExplainer (GCN)", 8.3}, {"GraphLIME (GCN)", 1.6},
              {"SES (GCN) -{Lm}", 5.27}, {"SES (GCN)", 14.7},
              {"GNNExplainer (GAT)", 15.4}, {"GraphLIME (GAT)", 1.2},
              {"SES (GAT) -{Lm}", 1.30}, {"SES (GAT)", 17.2}}},
    {"CiteSeer", {{"GNNExplainer (GCN)", 4.3}, {"GraphLIME (GCN)", 1.7},
                  {"SES (GCN) -{Lm}", 1.79}, {"SES (GCN)", 16.1},
                  {"GNNExplainer (GAT)", 9.4}, {"GraphLIME (GAT)", 1.0},
                  {"SES (GAT) -{Lm}", 2.17}, {"SES (GAT)", 11.0}}},
    {"PolBlogs", {{"GNNExplainer (GCN)", 40.5}, {"GraphLIME (GCN)", 2.0},
                  {"SES (GCN) -{Lm}", 48.53}, {"SES (GCN)", 49.3},
                  {"GNNExplainer (GAT)", 44.8}, {"GraphLIME (GAT)", 2.8},
                  {"SES (GAT) -{Lm}", 39.13}, {"SES (GAT)", 44.6}}},
    {"CS", {{"GNNExplainer (GCN)", 0.17}, {"GraphLIME (GCN)", 0.09},
            {"SES (GCN) -{Lm}", 0.6}, {"SES (GCN)", 2.77},
            {"GNNExplainer (GAT)", 0.15}, {"GraphLIME (GAT)", 0.12},
            {"SES (GAT) -{Lm}", 0.3}, {"SES (GAT)", 2.96}}},
};

}  // namespace

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  obs::Session obs_session(flags);
  bench::Profile profile = bench::Profile::FromFlags(flags);
  std::printf("[Table 5] %s\n", profile.Describe().c_str());
  // The paper removes the top-5 of Cora's 1433 sparse dimensions. The
  // stand-ins carry ~18 nonzeros per node, so the calibrated equivalent
  // removes a comparable FRACTION of the node's features; --topk overrides.
  const int64_t top_k = flags.GetInt("topk", profile.full ? 5 : 10);
  std::printf("(top-%lld features removed per node)\n",
              static_cast<long long>(top_k));

  util::Table table("Table 5: Fidelity+ (%) of feature explanations");
  table.SetHeader({"Dataset", "Method", "Ours", "Paper"});
  for (const char* name : kDatasets) {
    auto ds = data::MakeRealWorldByName(name, profile.real_scale, 1);
    auto cfg = profile.MakeTrainConfig(1);
    // Per-node explainers run on the capped node set; Fidelity+ is then
    // evaluated on the test nodes inside that set.
    std::vector<int64_t> nodes =
        explain::NodesToExplain(ds, profile.explain_nodes_cap * 4);
    std::vector<bool> in_set(static_cast<size_t>(ds.num_nodes()), false);
    for (int64_t v : nodes) in_set[static_cast<size_t>(v)] = true;
    std::vector<int64_t> eval_idx;
    for (int64_t v : ds.test_idx)
      if (in_set[static_cast<size_t>(v)]) eval_idx.push_back(v);
    if (eval_idx.empty()) eval_idx = ds.test_idx;

    for (const std::string backbone : {"GCN", "GAT"}) {
      models::BackboneModel base(backbone);
      base.Fit(ds, cfg);
      auto add = [&](const std::string& method, double fid) {
        table.AddRow({name, method, util::Table::Num(fid, 2),
                      util::Table::Num(kPaper.at(name).at(method), 2)});
        std::fprintf(stderr, "  %s %s done\n", name, method.c_str());
      };
      {
        explain::GnnExplainer::Options opt;
        opt.epochs = profile.full ? 100 : 50;
        explain::GnnExplainer gex(base.encoder(), opt);
        add("GNNExplainer (" + backbone + ")",
            metrics::FidelityPlus(&base, ds, gex.ExplainFeaturesNnz(ds, nodes),
                                  top_k, eval_idx));
      }
      {
        explain::GraphLimeExplainer lime(base.encoder());
        add("GraphLIME (" + backbone + ")",
            metrics::FidelityPlus(&base, ds,
                                  lime.ExplainFeaturesNnz(ds, nodes), top_k,
                                  eval_idx));
      }
      for (const bool use_mask_xent : {false, true}) {
        core::SesOptions opt;
        opt.backbone = backbone;
        opt.use_mask_xent = use_mask_xent;
        core::SesModel ses(opt);
        ses.Fit(ds, cfg);
        std::vector<float> scores(ses.feature_mask_nnz().size());
        for (int64_t i = 0; i < ses.feature_mask_nnz().size(); ++i)
          scores[static_cast<size_t>(i)] = ses.feature_mask_nnz()[i];
        add(use_mask_xent ? "SES (" + backbone + ")"
                          : "SES (" + backbone + ") -{Lm}",
            metrics::FidelityPlus(&ses, ds, scores, top_k, eval_idx));
      }
    }
  }
  table.Print();
  table.WriteCsv(bench::ArtifactDir() + "/table5_fidelity.csv");
  return 0;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
