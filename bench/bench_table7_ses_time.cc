// Reproduces Table 7: SES (GCN) training and explanation-inference time on
// the four real-world datasets.
#include <cstdio>

#include "bench_common.h"
#include "util/table.h"
#include "util/timer.h"

using namespace ses;

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  bench::Profile profile = bench::Profile::FromFlags(flags);
  obs::Session obs_session(flags);
  std::printf("[Table 7] %s\n", profile.Describe().c_str());

  const char* datasets[] = {"Cora", "CiteSeer", "PolBlogs", "CS"};
  const char* paper_inference[] = {"4.3s", "4.4s", "9.1s", "34.0s"};
  const char* paper_training[] = {"10.8s", "12.3s", "13.1s", "89.7s"};

  util::Table table("Table 7: Training and inference time of SES (GCN)");
  table.SetHeader({"Dataset", "Inference (ours)", "Inference (paper)",
                   "Training (ours)", "Training (paper)"});
  for (int d = 0; d < 4; ++d) {
    auto ds = data::MakeRealWorldByName(datasets[d], profile.real_scale, 1);
    core::SesOptions opt;
    opt.backbone = "GCN";
    core::SesModel ses(opt);
    ses.Fit(ds, profile.MakeTrainConfig(1));
    const double inference = ses.explainable_training_seconds() +
                             ses.explanation_inference_seconds();
    const double training = inference + ses.enhanced_learning_seconds();
    table.AddRow({datasets[d], util::FormatDuration(inference),
                  paper_inference[d], util::FormatDuration(training),
                  paper_training[d]});
    std::fprintf(stderr, "  %s done\n", datasets[d]);
  }
  table.Print();
  table.WriteCsv(bench::ArtifactDir() + "/table7_ses_time.csv");
  return 0;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
