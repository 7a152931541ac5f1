// Reproduces Table 6: wall-clock time to produce explanations for all nodes
// of Cora — GNNExplainer, GraphLIME, PGExplainer, SEGNN and SES (et).
// Per the paper's protocol, the per-node methods' time includes their
// per-node (re)optimization; SES and SEGNN include their training because
// the same process yields the explanations.
//
// Under the fast profile the per-node explainers run on a capped node set
// and the measured time is linearly extrapolated to all nodes (their cost is
// per-node by construction); the extrapolation is labeled in the output.
#include <cstdio>

#include "bench_common.h"
#include "explain/gnn_explainer.h"
#include "explain/graphlime.h"
#include "explain/pg_explainer.h"
#include "metrics/metrics.h"
#include "util/table.h"
#include "util/timer.h"

using namespace ses;

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  bench::Profile profile = bench::Profile::FromFlags(flags);
  obs::Session obs_session(flags);
  std::printf("[Table 6] %s\n", profile.Describe().c_str());

  auto ds = data::MakeRealWorldByName("Cora", profile.real_scale, 1);
  auto cfg = profile.MakeTrainConfig(1);
  std::vector<int64_t> capped =
      explain::NodesToExplain(ds, profile.explain_nodes_cap);
  const double extrapolate =
      capped.empty() ? 1.0
                     : static_cast<double>(ds.num_nodes()) /
                           static_cast<double>(capped.size());

  models::BackboneModel gcn("GCN");
  gcn.Fit(ds, cfg);

  util::Table table(
      "Table 6: Inference time of generating explanations for all nodes (Cora)");
  table.SetHeader({"Method", "Ours", "Paper"});
  util::Timer timer;

  {
    explain::GnnExplainer::Options opt;
    opt.epochs = profile.full ? 100 : 50;
    explain::GnnExplainer gex(gcn.encoder(), opt);
    timer.Reset();
    gex.ExplainEdges(ds, capped);
    const double t = timer.ElapsedSeconds() * extrapolate;
    table.AddRow({"GNNExplainer", util::FormatDuration(t), "9 min 50s"});
  }
  {
    explain::GraphLimeExplainer lime(gcn.encoder());
    timer.Reset();
    lime.ExplainFeaturesNnz(ds, capped);
    const double t = timer.ElapsedSeconds() * extrapolate;
    table.AddRow({"GraphLIME", util::FormatDuration(t), "4 min 24s"});
  }
  {
    explain::PgExplainer pge(gcn.encoder());
    timer.Reset();
    pge.ExplainEdges(ds);  // global: no extrapolation needed
    table.AddRow({"PGExplainer", util::FormatDuration(timer.ElapsedSeconds()),
                  "1 min 13s"});
  }
  {
    models::SegnnModel segnn;
    timer.Reset();
    segnn.Fit(ds, cfg);
    segnn.Logits(ds);  // the kNN search is where SEGNN pays
    table.AddRow({"SEGNN", util::FormatDuration(timer.ElapsedSeconds()),
                  "1 min 32s"});
  }
  {
    core::SesOptions opt;
    opt.backbone = "GCN";
    core::SesModel ses(opt);
    ses.Fit(ds, cfg);
    // SES (et): the explainable-training pass that already yields masks for
    // every node, plus the mask readout.
    table.AddRow({"SES (et)",
                  util::FormatDuration(ses.explainable_training_seconds() +
                                       ses.explanation_inference_seconds()),
                  "4.3s"});
  }
  if (!profile.full)
    std::printf(
        "(per-node methods measured on %zu nodes and extrapolated x%.1f)\n",
        capped.size(), extrapolate);
  table.Print();
  table.WriteCsv(bench::ArtifactDir() + "/table6_explain_time.csv");
  return 0;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
