// Reproduces Figure 8: case studies of subgraph explanations on the
// real-world datasets. For one central node per dataset, the 2-hop
// neighbors are ranked by SES's structure mask and by the edge masks of
// GNNExplainer, PGExplainer and PGMExplainer; the rankings (with each
// neighbor's label vs the center's label) are printed and the SES view is
// exported as SVG.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "explain/gnn_explainer.h"
#include "explain/pg_explainer.h"
#include "explain/pgm_explainer.h"
#include "util/table.h"
#include "viz/graph_export.h"

using namespace ses;

namespace {

/// Ranks the center's direct neighbors by a global per-undirected-edge
/// score vector and renders "id(label)" entries, center first.
std::string RankNeighbors(const data::Dataset& ds, int64_t center,
                          const std::vector<float>& scores) {
  const auto& und = ds.graph.edges();
  std::vector<std::pair<float, int64_t>> ranked;
  for (int64_t nbr : ds.graph.Neighbors(center)) {
    auto key = std::make_pair(std::min(center, nbr), std::max(center, nbr));
    auto it = std::lower_bound(und.begin(), und.end(), key);
    if (it == und.end() || *it != key) continue;
    ranked.emplace_back(scores[static_cast<size_t>(it - und.begin())], nbr);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::string out;
  for (size_t i = 0; i < ranked.size() && i < 8; ++i) {
    if (i) out += " > ";
    out += std::to_string(ranked[i].second) + "(" +
           std::to_string(ds.labels[static_cast<size_t>(ranked[i].second)]) +
           ")";
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  obs::Session obs_session(flags);
  bench::Profile profile = bench::Profile::FromFlags(flags);
  std::printf("[Fig 8] %s\n", profile.Describe().c_str());

  const char* datasets[] = {"Cora", "CiteSeer", "PolBlogs", "CS"};
  // The paper picks nodes 78 / 50 / 539 / 212; with the stand-in graphs any
  // well-connected node plays the same role, so we take the paper's ids
  // modulo the scaled graph size, nudged to a node with >= 4 neighbors.
  const int64_t paper_ids[] = {78, 50, 539, 212};

  util::Table table("Figure 8: neighbor rankings (id(label), best first)");
  table.SetHeader({"Dataset", "Center(label)", "Method", "Ranked neighbors"});
  for (int d = 0; d < 4; ++d) {
    auto ds = data::MakeRealWorldByName(datasets[d], profile.real_scale, 1);
    int64_t center = paper_ids[d] % ds.num_nodes();
    while (ds.graph.Degree(center) < 4) center = (center + 1) % ds.num_nodes();
    const std::string center_str =
        std::to_string(center) + "(" +
        std::to_string(ds.labels[static_cast<size_t>(center)]) + ")";
    std::vector<int64_t> nodes{center};

    auto cfg = profile.MakeTrainConfig(1);
    models::BackboneModel gcn("GCN");
    gcn.Fit(ds, cfg);

    {
      explain::GnnExplainer::Options opt;
      opt.epochs = 60;
      explain::GnnExplainer gex(gcn.encoder(), opt);
      table.AddRow({datasets[d], center_str, "GEX",
                    RankNeighbors(ds, center, gex.ExplainEdges(ds, nodes))});
    }
    {
      explain::PgExplainer pge(gcn.encoder());
      table.AddRow({datasets[d], center_str, "PGE",
                    RankNeighbors(ds, center, pge.ExplainEdges(ds))});
    }
    {
      explain::PgmExplainer pgm(gcn.encoder());
      table.AddRow({datasets[d], center_str, "PGM",
                    RankNeighbors(ds, center, pgm.ExplainEdges(ds, nodes))});
    }
    {
      core::SesOptions opt;
      opt.backbone = "GCN";
      core::SesModel ses(opt);
      ses.Fit(ds, cfg);
      auto scores = ses.EdgeScores(ds);
      table.AddRow({datasets[d], center_str, "SES",
                    RankNeighbors(ds, center, scores)});
      // SVG of the SES-weighted 2-hop subgraph.
      graph::Subgraph sub = graph::ExtractEgoNet(ds.graph, center, 2);
      const auto& und = ds.graph.edges();
      std::vector<float> local;
      for (auto [la, lb] : sub.graph.edges()) {
        const int64_t ga = sub.nodes[static_cast<size_t>(la)];
        const int64_t gb = sub.nodes[static_cast<size_t>(lb)];
        auto key = std::make_pair(std::min(ga, gb), std::max(ga, gb));
        auto it = std::lower_bound(und.begin(), und.end(), key);
        local.push_back(it != und.end() && *it == key
                            ? scores[static_cast<size_t>(it - und.begin())]
                            : 0.0f);
      }
      util::WriteFile(
          bench::ArtifactDir() + "/fig8_" + std::string(datasets[d]) +
              "_SES.svg",
          viz::SubgraphToSvg(sub, ds.labels, local, sub.center_local));
    }
    std::fprintf(stderr, "  %s done\n", datasets[d]);
  }
  table.Print();
  table.WriteCsv(bench::ArtifactDir() + "/fig8_case_study.csv");
  return 0;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
