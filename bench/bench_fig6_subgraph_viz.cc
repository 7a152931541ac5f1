// Reproduces Figure 6: visualizations of subgraph explanations on the
// synthetic datasets for GNNExplainer, PGExplainer, PGMExplainer and SES.
// For each dataset, one motif node's 2-hop neighborhood is rendered as SVG
// and DOT with edge darkness proportional to the method's importance score.
#include <cstdio>

#include "bench_common.h"
#include "explain/gnn_explainer.h"
#include "explain/pg_explainer.h"
#include "explain/pgm_explainer.h"
#include "metrics/metrics.h"
#include "util/table.h"
#include "viz/graph_export.h"

using namespace ses;

namespace {

/// Restricts a global per-undirected-edge score vector to a subgraph's edges.
std::vector<float> LocalScores(const data::Dataset& ds,
                               const graph::Subgraph& sub,
                               const std::vector<float>& global) {
  const auto& und = ds.graph.edges();
  std::vector<float> local;
  local.reserve(static_cast<size_t>(sub.graph.num_edges()));
  for (auto [la, lb] : sub.graph.edges()) {
    const int64_t ga = sub.nodes[static_cast<size_t>(la)];
    const int64_t gb = sub.nodes[static_cast<size_t>(lb)];
    auto key = std::make_pair(std::min(ga, gb), std::max(ga, gb));
    auto it = std::lower_bound(und.begin(), und.end(), key);
    local.push_back(it != und.end() && *it == key
                        ? global[static_cast<size_t>(it - und.begin())]
                        : 0.0f);
  }
  return local;
}

}  // namespace

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  obs::Session obs_session(flags);
  bench::Profile profile = bench::Profile::FromFlags(flags);
  std::printf("[Fig 6] %s\n", profile.Describe().c_str());

  const char* datasets[] = {"BAShapes", "BACommunity", "Tree-Cycle",
                            "Tree-Grid"};
  for (const char* name : datasets) {
    auto ds = data::MakeSyntheticByName(name);
    // First motif node as the explanation center.
    int64_t center = -1;
    for (int64_t i = 0; i < ds.num_nodes() && center < 0; ++i)
      if (ds.in_motif[static_cast<size_t>(i)]) center = i;
    if (center < 0) continue;
    graph::Subgraph sub = graph::ExtractEgoNet(ds.graph, center, 2);
    std::vector<int64_t> nodes{center};

    auto cfg = profile.MakeTrainConfig(1);
    cfg.epochs = profile.full ? 300 : 120;
    cfg.dropout = 0.2f;
    models::BackboneModel gcn("GCN");
    gcn.Fit(ds, cfg);

    auto emit = [&](const std::string& method,
                    const std::vector<float>& global) {
      auto local = LocalScores(ds, sub, global);
      const std::string base = bench::ArtifactDir() + "/fig6_" +
                               std::string(name) + "_" + method;
      util::WriteFile(base + ".svg",
                      viz::SubgraphToSvg(sub, ds.labels, local,
                                         sub.center_local));
      util::WriteFile(base + ".dot",
                      viz::SubgraphToDot(sub, ds.labels, local,
                                         sub.center_local));
      std::printf("  %s %s -> %s.svg\n", name, method.c_str(), base.c_str());
    };

    {
      explain::GnnExplainer::Options opt;
      opt.epochs = 60;
      explain::GnnExplainer gex(gcn.encoder(), opt);
      emit("GEX", gex.ExplainEdges(ds, nodes));
    }
    {
      explain::PgExplainer pge(gcn.encoder());
      emit("PGE", pge.ExplainEdges(ds));
    }
    {
      explain::PgmExplainer pgm(gcn.encoder());
      emit("PGM", pgm.ExplainEdges(ds, nodes));
    }
    {
      core::SesOptions opt;
      opt.backbone = "GCN";
      core::SesModel ses(opt);
      ses.Fit(ds, cfg);
      emit("SES", ses.EdgeScores(ds));
    }
  }
  return 0;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
