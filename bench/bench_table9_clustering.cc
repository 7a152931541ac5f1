// Reproduces Table 9 (+ Figure 5): Silhouette and Calinski-Harabasz scores
// of the learned node representations on CiteSeer for SES (GCN), SES (GAT),
// SEGNN and ProtGNN, plus t-SNE scatter SVGs of the embeddings.
#include <cstdio>

#include "bench_common.h"
#include "metrics/metrics.h"
#include "tensor/ops.h"
#include "util/table.h"
#include "viz/graph_export.h"
#include "viz/tsne.h"

using namespace ses;

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  obs::Session obs_session(flags);
  bench::Profile profile = bench::Profile::FromFlags(flags);
  std::printf("[Table 9 / Fig 5] %s\n", profile.Describe().c_str());

  auto ds = data::MakeRealWorldByName("CiteSeer", profile.real_scale, 1);
  auto cfg = profile.MakeTrainConfig(1);

  const double paper_sil[] = {0.316, 0.375, 0.131, 0.277};
  const double paper_ch[] = {1694.75, 2131.56, 456.37, 1090.13};
  const char* names[] = {"SES (GCN)", "SES (GAT)", "SEGNN", "ProtGNN"};

  util::Table table("Table 9: Statistical metrics for visualization (CiteSeer)");
  table.SetHeader({"Model", "Silhouette (ours)", "Silhouette (paper)",
                   "Calinski-Harabasz (ours)", "Calinski-Harabasz (paper)"});

  // Subsample for the O(N^2) t-SNE under the fast profile.
  const int64_t tsne_cap = profile.full ? 2000 : 700;
  std::vector<int64_t> sample;
  for (int64_t i = 0; i < std::min<int64_t>(ds.num_nodes(), tsne_cap); ++i)
    sample.push_back(i);
  std::vector<int64_t> sample_labels;
  for (int64_t i : sample)
    sample_labels.push_back(ds.labels[static_cast<size_t>(i)]);

  for (int m = 0; m < 4; ++m) {
    std::unique_ptr<models::NodeClassifier> model =
        bench::MakeModel(names[m]);
    model->Fit(ds, cfg);
    tensor::Tensor emb = model->Embeddings(ds);
    const double sil = metrics::SilhouetteScore(emb, ds.labels);
    const double ch = metrics::CalinskiHarabaszScore(emb, ds.labels);
    table.AddRow({names[m], util::Table::Num(sil, 3),
                  util::Table::Num(paper_sil[m], 3), util::Table::Num(ch, 2),
                  util::Table::Num(paper_ch[m], 2)});
    // Figure 5: t-SNE of a node sample.
    tensor::Tensor sub_emb = tensor::GatherRows(emb, sample);
    viz::TsneOptions topt;
    topt.iterations = profile.full ? 400 : 200;
    tensor::Tensor points = viz::Tsne(sub_emb, topt);
    const std::string path = bench::ArtifactDir() + "/fig5_tsne_" +
                             std::string(names[m]) + ".svg";
    util::WriteFile(path, viz::ScatterToSvg(points, sample_labels, names[m]));
    std::fprintf(stderr, "  %s done (fig5 -> %s)\n", names[m], path.c_str());
  }
  table.Print();
  table.WriteCsv(bench::ArtifactDir() + "/table9_clustering.csv");
  return 0;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
