// Reproduces Table 4: explanation accuracy (edge AUC, %) on the four
// synthetic benchmarks for GRAD, ATT, GNNExplainer, PGExplainer,
// PGMExplainer, SEGNN and SES.
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "explain/gnn_explainer.h"
#include "explain/grad_att.h"
#include "explain/pg_explainer.h"
#include "explain/pgm_explainer.h"
#include "metrics/metrics.h"
#include "util/table.h"

using namespace ses;

namespace {

const char* kDatasets[] = {"BAShapes", "BACommunity", "Tree-Cycle",
                           "Tree-Grid"};

const std::map<std::string, std::map<std::string, double>> kPaper = {
    {"BAShapes",
     {{"GRAD", 88.2}, {"ATT", 81.5}, {"GNNExplainer", 92.5},
      {"PGExplainer", 96.3}, {"PGMExplainer", 96.5}, {"SEGNN", 97.3},
      {"SES", 99.8}}},
    {"BACommunity",
     {{"GRAD", 75.0}, {"ATT", 73.9}, {"GNNExplainer", 83.6},
      {"PGExplainer", 94.5}, {"PGMExplainer", 92.6}, {"SEGNN", 77.2},
      {"SES", 94.5}}},
    {"Tree-Cycle",
     {{"GRAD", 90.5}, {"ATT", 82.4}, {"GNNExplainer", 94.8},
      {"PGExplainer", 98.7}, {"PGMExplainer", 96.8}, {"SEGNN", 62.3},
      {"SES", 99.4}}},
    {"Tree-Grid",
     {{"GRAD", 61.2}, {"ATT", 66.7}, {"GNNExplainer", 87.5},
      {"PGExplainer", 90.7}, {"PGMExplainer", 89.2}, {"SEGNN", 50.5},
      {"SES", 93.7}}},
};

}  // namespace

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  obs::Session obs_session(flags);
  bench::Profile profile = bench::Profile::FromFlags(flags);
  std::printf("[Table 4] %s\n", profile.Describe().c_str());

  util::Table table("Table 4: Explanation accuracy (%) on synthetic datasets");
  table.SetHeader({"Dataset", "Method", "Ours", "Paper"});
  for (const char* name : kDatasets) {
    auto ds = data::MakeSyntheticByName(name);
    // Nodes the per-node explainers process: motif nodes first.
    std::vector<int64_t> nodes =
        explain::NodesToExplain(ds, profile.explain_nodes_cap);
    auto cfg = profile.MakeTrainConfig(1);
    cfg.epochs = profile.full ? 300 : 150;
    cfg.dropout = 0.2f;

    // Trained backbones shared by the post-hoc explainers.
    models::BackboneModel gcn("GCN");
    gcn.Fit(ds, cfg);
    models::BackboneModel gat("GAT");
    gat.Fit(ds, cfg);

    auto add = [&](const std::string& method, double auc) {
      table.AddRow({name, method, util::Table::Num(100.0 * auc, 1),
                    util::Table::Num(kPaper.at(name).at(method), 1)});
      std::fprintf(stderr, "  %s %s done\n", name, method.c_str());
    };

    explain::GradExplainer grad(gcn.encoder());
    add("GRAD", metrics::ExplanationAuc(ds, grad.ExplainEdges(ds)));
    explain::AttExplainer att(gat.encoder());
    add("ATT", metrics::ExplanationAuc(ds, att.ExplainEdges(ds)));
    {
      explain::GnnExplainer::Options opt;
      opt.epochs = profile.full ? 100 : 60;
      explain::GnnExplainer gex(gcn.encoder(), opt);
      add("GNNExplainer",
          metrics::ExplanationAuc(ds, gex.ExplainEdges(ds, nodes)));
    }
    {
      explain::PgExplainer pge(gcn.encoder());
      add("PGExplainer", metrics::ExplanationAuc(ds, pge.ExplainEdges(ds)));
    }
    {
      explain::PgmExplainer::Options opt;
      opt.samples = profile.full ? 100 : 40;
      explain::PgmExplainer pgm(gcn.encoder(), opt);
      add("PGMExplainer",
          metrics::ExplanationAuc(ds, pgm.ExplainEdges(ds, nodes)));
    }
    {
      models::SegnnModel segnn;
      segnn.Fit(ds, cfg);
      add("SEGNN", metrics::ExplanationAuc(ds, segnn.EdgeScores(ds)));
    }
    {
      core::SesOptions opt;
      opt.backbone = "GCN";
      core::SesModel ses(opt);
      ses.Fit(ds, cfg);
      add("SES", metrics::ExplanationAuc(ds, ses.EdgeScores(ds)));
    }
  }
  table.Print();
  table.WriteCsv(bench::ArtifactDir() + "/table4_explanation_auc.csv");
  return 0;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
