// Reproduces Table 3: prediction accuracy (%) on node classification over
// the four real-world datasets for the full model zoo (GCN, GAT, UniMP,
// FusedGAT, ASDGN, SEGNN, ProtGNN, SES (GCN), SES (GAT)).
//
// The paper's numbers are printed alongside ours for shape comparison; the
// datasets here are calibrated stand-ins (DESIGN.md §3), so the claim under
// test is the ordering — SES improving on its backbone and on the
// self-explainable baselines — not the absolute accuracy.
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "metrics/metrics.h"
#include "util/table.h"
#include "util/timer.h"

using namespace ses;

namespace {

const char* kDatasets[] = {"Cora", "CiteSeer", "PolBlogs", "CS"};
const char* kModels[] = {"GCN",   "GAT",     "UniMP",     "FusedGAT", "ASDGN",
                         "SEGNN", "ProtGNN", "SES (GCN)", "SES (GAT)"};

// Paper-reported means for reference.
const std::map<std::string, std::map<std::string, double>> kPaper = {
    {"Cora",
     {{"GCN", 86.83}, {"GAT", 86.81}, {"UniMP", 88.18}, {"FusedGAT", 80.26},
      {"ASDGN", 83.28}, {"SEGNN", 84.35}, {"ProtGNN", 81.98},
      {"SES (GCN)", 90.64}, {"SES (GAT)", 90.39}}},
    {"CiteSeer",
     {{"GCN", 75.50}, {"GAT", 72.22}, {"UniMP", 75.33}, {"FusedGAT", 74.22},
      {"ASDGN", 75.20}, {"SEGNN", 76.10}, {"ProtGNN", 73.42},
      {"SES (GCN)", 78.51}, {"SES (GAT)", 78.69}}},
    {"PolBlogs",
     {{"GCN", 93.86}, {"GAT", 94.72}, {"UniMP", 95.45}, {"FusedGAT", 94.63},
      {"ASDGN", 80.45}, {"ProtGNN", 88.77},
      {"SES (GCN)", 97.90}, {"SES (GAT)", 97.86}}},
    {"CS",
     {{"GCN", 90.08}, {"GAT", 91.72}, {"UniMP", 93.65}, {"FusedGAT", 91.35},
      {"ASDGN", 93.70}, {"ProtGNN", 84.30},
      {"SES (GCN)", 94.54}, {"SES (GAT)", 94.10}}},
};

// SEGNN is unsuitable for PolBlogs (no informative node features for the
// similarity module) and CS (quadratic memory), exactly as in the paper.
bool Applicable(const std::string& model, const std::string& dataset) {
  if (model != "SEGNN") return true;
  return dataset != "PolBlogs" && dataset != "CS";
}

}  // namespace

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  obs::Session obs_session(flags);
  bench::Profile profile = bench::Profile::FromFlags(flags);
  std::printf("[Table 3] %s\n", profile.Describe().c_str());

  util::Table table("Table 3: Prediction Accuracy (%) on Node Classification");
  table.SetHeader({"Dataset", "Model", "Ours (mean±std)", "Paper"});
  util::Timer total;
  for (const char* dataset : kDatasets) {
    for (const char* model_name : kModels) {
      if (!Applicable(model_name, dataset)) {
        table.AddRow({dataset, model_name, "-", "-"});
        continue;
      }
      std::vector<double> accs;
      for (int64_t seed = 0; seed < profile.seeds; ++seed) {
        auto ds = data::MakeRealWorldByName(dataset, profile.real_scale, seed);
        auto model = bench::MakeModel(model_name);
        model->Fit(ds, profile.MakeTrainConfig(seed));
        accs.push_back(
            100.0 * models::Accuracy(model->Logits(ds), ds.labels, ds.test_idx));
      }
      auto stats = metrics::Summarize(accs);
      auto paper_it = kPaper.at(dataset).find(model_name);
      table.AddRow({dataset, model_name,
                    util::Table::MeanStd(stats.mean, stats.std),
                    paper_it == kPaper.at(dataset).end()
                        ? "-"
                        : util::Table::Num(paper_it->second)});
      std::fprintf(stderr, "  done %-9s %-10s (%.0fs elapsed)\n", dataset,
                   model_name, total.ElapsedSeconds());
    }
  }
  table.Print();
  table.WriteCsv(bench::ArtifactDir() + "/table3_node_classification.csv");
  return 0;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
