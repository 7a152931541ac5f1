#include <gtest/gtest.h>
#include <cmath>

#include <fstream>

#include "data/synthetic.h"
#include "metrics/metrics.h"
#include "tensor/tensor.h"
#include "viz/graph_export.h"
#include "viz/tsne.h"
#include "omp_team.h"

namespace v = ses::viz;
namespace t = ses::tensor;

namespace {

TEST(TsneTest, OutputShape) {
  ses::util::Rng rng(1);
  t::Tensor data = t::Tensor::Randn(50, 10, &rng);
  v::TsneOptions opt;
  opt.iterations = 60;
  t::Tensor y = v::Tsne(data, opt);
  EXPECT_EQ(y.rows(), 50);
  EXPECT_EQ(y.cols(), 2);
  for (int64_t i = 0; i < y.size(); ++i) ASSERT_TRUE(std::isfinite(y[i]));
}

TEST(TsneTest, PreservesClusterStructure) {
  // Two well-separated Gaussian blobs in 10-D must stay separated in 2-D.
  ses::util::Rng rng(2);
  const int64_t n = 60;
  t::Tensor data(n, 10);
  std::vector<int64_t> labels(n);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = i < n / 2 ? 0 : 1;
    labels[static_cast<size_t>(i)] = c;
    for (int64_t j = 0; j < 10; ++j)
      data.At(i, j) = static_cast<float>(rng.Normal(c * 8.0, 0.5));
  }
  v::TsneOptions opt;
  opt.iterations = 250;
  t::Tensor y = v::Tsne(data, opt);
  EXPECT_GT(ses::metrics::SilhouetteScore(y, labels), 0.3);
}

TEST(TsneTest, DeterministicForSeed) {
  const ses::test::ScopedOmpTeam team(4);
  ses::util::Rng rng(3);
  t::Tensor data = t::Tensor::Randn(30, 5, &rng);
  v::TsneOptions opt;
  opt.iterations = 40;
  t::Tensor a = v::Tsne(data, opt);
  t::Tensor b = v::Tsne(data, opt);
  EXPECT_FLOAT_EQ(a.MaxAbsDiff(b), 0.0f);
}

TEST(GraphExportTest, SvgContainsNodesAndEdges) {
  ses::data::SyntheticOptions opt;
  opt.scale = 0.1;
  auto ds = ses::data::MakeBaShapes(opt);
  int64_t center = 0;
  for (int64_t i = 0; i < ds.num_nodes(); ++i)
    if (ds.in_motif[static_cast<size_t>(i)]) {
      center = i;
      break;
    }
  auto sub = ses::graph::ExtractEgoNet(ds.graph, center, 2);
  std::vector<float> weights(static_cast<size_t>(sub.graph.num_edges()), 0.5f);
  std::string svg = v::SubgraphToSvg(sub, ds.labels, weights, sub.center_local);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One circle per node, one line per edge.
  size_t circles = 0, lines = 0;
  for (size_t pos = 0; (pos = svg.find("<circle", pos)) != std::string::npos;
       ++pos)
    ++circles;
  for (size_t pos = 0; (pos = svg.find("<line", pos)) != std::string::npos;
       ++pos)
    ++lines;
  EXPECT_EQ(circles, static_cast<size_t>(sub.graph.num_nodes()));
  EXPECT_EQ(lines, static_cast<size_t>(sub.graph.num_edges()));
}

TEST(GraphExportTest, DotIsWellFormed) {
  ses::graph::Graph g =
      ses::graph::Graph::FromUndirectedEdges(3, {{0, 1}, {1, 2}});
  ses::graph::Subgraph sub;
  sub.graph = g;
  sub.nodes = {10, 11, 12};
  sub.local_of = {};
  std::vector<int64_t> labels(13, 0);
  std::string dot = v::SubgraphToDot(sub, labels, {0.2f, 0.9f}, 1);
  EXPECT_NE(dot.find("graph explanation {"), std::string::npos);
  EXPECT_NE(dot.find("n10 -- n11"), std::string::npos);
  EXPECT_NE(dot.find("}"), std::string::npos);
}

TEST(GraphExportTest, HeatmapPgmRoundTrip) {
  t::Tensor m{{0.0f, 0.5f}, {1.0f, 0.25f}};
  const std::string path = "test_artifacts/heat.pgm";
  v::WriteHeatmapPgm(m, path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P5");
  int w, h, maxval;
  in >> w >> h >> maxval;
  EXPECT_EQ(w, 2);
  EXPECT_EQ(h, 2);
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after header
  unsigned char pix[4];
  in.read(reinterpret_cast<char*>(pix), 4);
  EXPECT_EQ(pix[0], 0);    // min
  EXPECT_EQ(pix[2], 255);  // max
}

TEST(GraphExportTest, ScatterSvgHasOnePointPerRow) {
  ses::util::Rng rng(4);
  t::Tensor points = t::Tensor::Randn(25, 2, &rng);
  std::vector<int64_t> labels(25, 1);
  std::string svg = v::ScatterToSvg(points, labels, "demo");
  size_t circles = 0;
  for (size_t pos = 0; (pos = svg.find("<circle", pos)) != std::string::npos;
       ++pos)
    ++circles;
  EXPECT_EQ(circles, 25u);
  EXPECT_NE(svg.find("demo"), std::string::npos);
}

}  // namespace
