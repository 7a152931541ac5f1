#ifndef SES_BENCHMARK_COMMON_H_
#define SES_BENCHMARK_COMMON_H_

#include <memory>
#include <string>

#include "core/ses_model.h"
#include "data/real_world.h"
#include "data/synthetic.h"
#include "models/asdgn.h"
#include "models/backbone_models.h"
#include "models/fused_gat.h"
#include "models/protgnn.h"
#include "models/segnn.h"
#include "models/unimp.h"
#include "obs/obs.h"
#include "util/string_util.h"
#include "util/table.h"

namespace ses::bench {

/// Resource profile for a benchmark run. The default ("fast") profile scales
/// the real-world stand-ins and epoch counts to the 2-core CPU budget this
/// harness runs under; `--full` restores paper-scale settings. Either way
/// every code path of every experiment executes — only sizes change.
/// EXPERIMENTS.md records which profile produced the committed outputs.
struct Profile {
  bool full = false;
  double real_scale = 0.35;       ///< fraction of the real dataset size
  int64_t epochs = 50;            ///< backbone / SES explainable epochs
  int64_t hidden = 64;            ///< hidden width (paper: 128)
  int64_t seeds = 2;              ///< repetitions for mean±std cells
  int64_t explain_nodes_cap = 80; ///< nodes processed by per-node explainers
  float lr = 0.003f;              ///< paper's learning rate
  float dropout = 0.3f;

  static Profile FromFlags(const util::FlagParser& flags) {
    Profile p;
    p.full = flags.GetBool("full", false);
    if (p.full) {
      p.real_scale = 1.0;
      p.epochs = 300;
      p.hidden = 128;
      p.seeds = 5;
      p.explain_nodes_cap = 0;  // all nodes
    }
    p.real_scale = flags.GetDouble("scale", p.real_scale);
    p.epochs = flags.GetInt("epochs", p.epochs);
    p.hidden = flags.GetInt("hidden", p.hidden);
    p.seeds = flags.GetInt("seeds", p.seeds);
    p.explain_nodes_cap = flags.GetInt("explain_nodes", p.explain_nodes_cap);
    return p;
  }

  models::TrainConfig MakeTrainConfig(uint64_t seed) const {
    models::TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.hidden = hidden;
    cfg.lr = lr;
    cfg.dropout = dropout;
    cfg.seed = seed;
    return cfg;
  }

  std::string Describe() const {
    return std::string(full ? "FULL" : "FAST") +
           " profile: scale=" + std::to_string(real_scale) +
           " epochs=" + std::to_string(epochs) +
           " hidden=" + std::to_string(hidden) +
           " seeds=" + std::to_string(seeds);
  }
};

/// Factory over the Table-3 model zoo.
inline std::unique_ptr<models::NodeClassifier> MakeModel(
    const std::string& name) {
  if (name == "GCN") return std::make_unique<models::BackboneModel>("GCN");
  if (name == "GAT") return std::make_unique<models::BackboneModel>("GAT");
  if (name == "UniMP") return std::make_unique<models::UniMpModel>();
  if (name == "FusedGAT") return std::make_unique<models::FusedGatModel>();
  if (name == "ASDGN") return std::make_unique<models::AsdgnModel>();
  if (name == "SEGNN") return std::make_unique<models::SegnnModel>();
  if (name == "ProtGNN") return std::make_unique<models::ProtGnnModel>();
  if (name == "SES (GCN)") {
    core::SesOptions opt;
    opt.backbone = "GCN";
    return std::make_unique<core::SesModel>(opt);
  }
  if (name == "SES (GAT)") {
    core::SesOptions opt;
    opt.backbone = "GAT";
    return std::make_unique<core::SesModel>(opt);
  }
  return nullptr;
}

inline std::string ArtifactDir() { return "bench_artifacts"; }

}  // namespace ses::bench

#endif  // SES_BENCHMARK_COMMON_H_
