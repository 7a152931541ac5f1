// Reproduces Figure 4: parameter sensitivity of SES — accuracy as a
// function of learning rate, k (hop radius), alpha, and beta, for GCN and
// GAT backbones on Cora / CiteSeer / PolBlogs. Emits one CSV series per
// (backbone, parameter) pair.
#include <cstdio>

#include "bench_common.h"
#include "metrics/metrics.h"
#include "util/table.h"

using namespace ses;

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  obs::Session obs_session(flags);
  bench::Profile profile = bench::Profile::FromFlags(flags);
  std::printf("[Fig 4] %s\n", profile.Describe().c_str());

  const char* datasets[] = {"Cora", "CiteSeer", "PolBlogs"};
  const std::vector<float> lrs = profile.full
                                     ? std::vector<float>{0.001f, 0.003f,
                                                          0.01f, 0.03f}
                                     : std::vector<float>{0.001f, 0.003f, 0.01f};
  const std::vector<int64_t> ks = {1, 2, 3};
  const std::vector<float> weights = profile.full
                                         ? std::vector<float>{0.1f, 0.3f, 0.5f,
                                                              0.7f, 0.9f}
                                         : std::vector<float>{0.1f, 0.5f, 0.9f};
  const std::vector<std::string> backbones =
      profile.full ? std::vector<std::string>{"GCN", "GAT"}
                   : std::vector<std::string>{"GCN"};

  auto run = [&](const std::string& backbone, const char* dataset,
                 float lr, int64_t k, float alpha, float beta) {
    auto ds = data::MakeRealWorldByName(dataset, profile.real_scale, 1);
    core::SesOptions opt;
    opt.backbone = backbone;
    opt.k = k;
    opt.alpha = alpha;
    opt.beta = beta;
    core::SesModel ses(opt);
    auto cfg = profile.MakeTrainConfig(1);
    cfg.lr = lr;
    ses.Fit(ds, cfg);
    return 100.0 * models::Accuracy(ses.Logits(ds), ds.labels, ds.test_idx);
  };

  util::Table table("Figure 4: parameter sensitivity of SES (accuracy %)");
  table.SetHeader({"Backbone", "Dataset", "Parameter", "Value", "Accuracy"});
  for (const auto& backbone : backbones) {
    for (const char* dataset : datasets) {
      for (float lr : lrs)
        table.AddRow({backbone, dataset, "lr", util::Table::Num(lr, 3),
                      util::Table::Num(run(backbone, dataset, lr, 2, 0.5f,
                                           0.5f), 2)});
      for (int64_t k : ks)
        table.AddRow({backbone, dataset, "k", std::to_string(k),
                      util::Table::Num(run(backbone, dataset, 0.003f, k, 0.5f,
                                           0.5f), 2)});
      for (float a : weights)
        table.AddRow({backbone, dataset, "alpha", util::Table::Num(a, 1),
                      util::Table::Num(run(backbone, dataset, 0.003f, 2, a,
                                           0.5f), 2)});
      for (float b : weights)
        table.AddRow({backbone, dataset, "beta", util::Table::Num(b, 1),
                      util::Table::Num(run(backbone, dataset, 0.003f, 2, 0.5f,
                                           b), 2)});
      std::fprintf(stderr, "  %s %s done\n", backbone.c_str(), dataset);
    }
  }
  table.Print();
  table.WriteCsv(bench::ArtifactDir() + "/fig4_sensitivity.csv");
  return 0;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
