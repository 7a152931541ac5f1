#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

#include "data/real_world.h"
#include "data/synthetic.h"
#include "graph/graph.h"

namespace d = ses::data;

namespace {

// --- invariants every dataset must satisfy, parameterized -------------------

d::Dataset MakeByKey(const std::string& key) {
  d::SyntheticOptions small;
  small.scale = 0.3;
  if (key == "BAShapes") return d::MakeBaShapes(small);
  if (key == "BACommunity") return d::MakeBaCommunity(small);
  if (key == "Tree-Cycle") return d::MakeTreeCycle(small);
  if (key == "Tree-Grid") return d::MakeTreeGrid(small);
  return d::MakeRealWorldByName(key, /*scale=*/0.15, /*seed=*/1);
}

class DatasetInvariantTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DatasetInvariantTest, ShapesConsistent) {
  d::Dataset ds = MakeByKey(GetParam());
  EXPECT_GT(ds.num_nodes(), 0);
  EXPECT_EQ(static_cast<int64_t>(ds.labels.size()), ds.num_nodes());
  EXPECT_EQ(ds.features->rows, ds.num_nodes());
  EXPECT_GT(ds.num_features(), 0);
  EXPECT_GT(ds.num_classes, 1);
}

TEST_P(DatasetInvariantTest, LabelsInRange) {
  d::Dataset ds = MakeByKey(GetParam());
  std::set<int64_t> seen;
  for (int64_t l : ds.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, ds.num_classes);
    seen.insert(l);
  }
  // Every class is populated.
  EXPECT_EQ(static_cast<int64_t>(seen.size()), ds.num_classes);
}

TEST_P(DatasetInvariantTest, SplitPartitionsNodes) {
  d::Dataset ds = MakeByKey(GetParam());
  std::set<int64_t> all;
  for (int64_t v : ds.train_idx) all.insert(v);
  for (int64_t v : ds.val_idx) all.insert(v);
  for (int64_t v : ds.test_idx) all.insert(v);
  EXPECT_EQ(static_cast<int64_t>(all.size()), ds.num_nodes());
  EXPECT_EQ(ds.train_idx.size() + ds.val_idx.size() + ds.test_idx.size(),
            static_cast<size_t>(ds.num_nodes()));
  EXPECT_GT(ds.train_idx.size(), ds.test_idx.size() / 4);
}

TEST_P(DatasetInvariantTest, GraphIsSimpleAndConnectedEnough) {
  d::Dataset ds = MakeByKey(GetParam());
  // No isolated region larger than half the graph (BFS from node 0).
  std::vector<bool> seen(static_cast<size_t>(ds.num_nodes()), false);
  std::vector<int64_t> stack{0};
  seen[0] = true;
  int64_t count = 1;
  while (!stack.empty()) {
    int64_t u = stack.back();
    stack.pop_back();
    for (int64_t v : ds.graph.Neighbors(u)) {
      if (!seen[static_cast<size_t>(v)]) {
        seen[static_cast<size_t>(v)] = true;
        ++count;
        stack.push_back(v);
      }
    }
  }
  EXPECT_GT(count, ds.num_nodes() / 2);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetInvariantTest,
                         ::testing::Values("BAShapes", "BACommunity",
                                           "Tree-Cycle", "Tree-Grid", "Cora",
                                           "CiteSeer", "PolBlogs", "CS"));

// --- synthetic ground truth --------------------------------------------------

class SyntheticGtTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SyntheticGtTest, GroundTruthEdgesExistAndTouchMotifs) {
  d::SyntheticOptions opt;
  opt.scale = 0.3;
  d::Dataset ds = d::MakeSyntheticByName(GetParam(), opt);
  ASSERT_TRUE(ds.HasGroundTruthExplanations());
  for (auto [u, v] : ds.gt_motif_edges) {
    EXPECT_TRUE(ds.graph.HasEdge(u, v));
    EXPECT_TRUE(ds.in_motif[static_cast<size_t>(u)]);
    EXPECT_TRUE(ds.in_motif[static_cast<size_t>(v)]);
    EXPECT_TRUE(ds.IsMotifEdge(u, v));
    EXPECT_TRUE(ds.IsMotifEdge(v, u));
  }
}

TEST_P(SyntheticGtTest, MotifNodesHaveNonBaseLabels) {
  d::SyntheticOptions opt;
  opt.scale = 0.3;
  d::Dataset ds = d::MakeSyntheticByName(GetParam(), opt);
  for (int64_t i = 0; i < ds.num_nodes(); ++i) {
    if (GetParam() == "BACommunity") continue;  // two base labels there
    if (!ds.in_motif[static_cast<size_t>(i)]) {
      EXPECT_EQ(ds.labels[static_cast<size_t>(i)], 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Synthetics, SyntheticGtTest,
                         ::testing::Values("BAShapes", "BACommunity",
                                           "Tree-Cycle", "Tree-Grid"));

TEST(SyntheticTest, BaShapesStructure) {
  d::Dataset ds = d::MakeBaShapes();  // paper scale
  EXPECT_EQ(ds.num_nodes(), 300 + 80 * 5);
  EXPECT_EQ(ds.num_classes, 4);
  // 80 houses x 6 internal edges (modulo rare dedup overlaps).
  EXPECT_GE(static_cast<int64_t>(ds.gt_motif_edges.size()), 470);
  int64_t motif_nodes = 0;
  for (bool m : ds.in_motif) motif_nodes += m;
  EXPECT_EQ(motif_nodes, 400);
}

TEST(SyntheticTest, TreeCycleStructure) {
  d::Dataset ds = d::MakeTreeCycle();
  EXPECT_EQ(ds.num_nodes(), 511 + 80 * 6);
  EXPECT_EQ(ds.num_classes, 2);
}

TEST(SyntheticTest, TreeGridStructure) {
  d::Dataset ds = d::MakeTreeGrid();
  EXPECT_EQ(ds.num_nodes(), 511 + 80 * 9);
  // 3x3 grid has 12 internal edges.
  EXPECT_GE(static_cast<int64_t>(ds.gt_motif_edges.size()), 80 * 12 - 20);
}

TEST(SyntheticTest, DeterministicAcrossCalls) {
  d::Dataset a = d::MakeBaShapes();
  d::Dataset b = d::MakeBaShapes();
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.labels, b.labels);
}

TEST(SyntheticTest, SeedChangesGraph) {
  d::SyntheticOptions opt1, opt2;
  opt2.seed = 99;
  d::Dataset a = d::MakeBaShapes(opt1);
  d::Dataset b = d::MakeBaShapes(opt2);
  EXPECT_NE(a.graph.edges(), b.graph.edges());
}

TEST(SyntheticTest, BarabasiAlbertDegreeSkew) {
  ses::util::Rng rng(13);
  auto g = d::MakeBarabasiAlbert(400, 3, &rng);
  int64_t max_deg = 0;
  for (int64_t v = 0; v < g.num_nodes(); ++v)
    max_deg = std::max(max_deg, g.Degree(v));
  // Preferential attachment produces hubs far above the mean degree (~6).
  EXPECT_GT(max_deg, 20);
}

// --- real-world stand-ins -----------------------------------------------------

TEST(RealWorldTest, CoraMatchesPublishedShape) {
  d::Dataset ds = d::MakeRealWorldByName("Cora", 1.0, 0);
  EXPECT_EQ(ds.num_nodes(), 2708);
  EXPECT_EQ(ds.num_classes, 7);
  EXPECT_NEAR(static_cast<double>(ds.graph.num_edges()), 5278.0, 500.0);
}

TEST(RealWorldTest, HomophilyCalibrated) {
  d::Dataset ds = d::MakeRealWorldByName("Cora", 0.5, 0);
  int64_t same = 0;
  for (auto [u, v] : ds.graph.edges())
    same += ds.labels[static_cast<size_t>(u)] ==
            ds.labels[static_cast<size_t>(v)];
  const double homophily =
      static_cast<double>(same) / static_cast<double>(ds.graph.num_edges());
  EXPECT_GT(homophily, 0.6);  // target 0.81 minus the random ring backbone
}

TEST(RealWorldTest, PolBlogsIdentityFeatures) {
  d::Dataset ds = d::MakeRealWorldByName("PolBlogs", 0.2, 0);
  EXPECT_EQ(ds.num_features(), ds.num_nodes());
  EXPECT_EQ(ds.features->nnz(), ds.num_nodes());
  EXPECT_EQ(ds.num_classes, 2);
}

TEST(RealWorldTest, FeaturesSparseAndClassCorrelated) {
  d::Dataset ds = d::MakeRealWorldByName("CiteSeer", 0.3, 0);
  // Sparse: average nonzeros per node far below dimensionality.
  const double avg_nnz = static_cast<double>(ds.features->nnz()) /
                         static_cast<double>(ds.num_nodes());
  EXPECT_LT(avg_nnz, ds.num_features() / 5.0);
  EXPECT_GT(avg_nnz, 3.0);
}

TEST(RealWorldTest, ScaleShrinksGraph) {
  d::Dataset big = d::MakeRealWorldByName("Cora", 0.5, 0);
  d::Dataset small = d::MakeRealWorldByName("Cora", 0.25, 0);
  EXPECT_GT(big.num_nodes(), small.num_nodes());
  EXPECT_GT(big.graph.num_edges(), small.graph.num_edges());
}

TEST(RealWorldTest, SeedsProduceDifferentSplits) {
  d::Dataset a = d::MakeRealWorldByName("Cora", 0.2, 1);
  d::Dataset b = d::MakeRealWorldByName("Cora", 0.2, 2);
  EXPECT_NE(a.train_idx, b.train_idx);
}

// ------------------------------------------------------- load-time validation

TEST(ValidateDatasetTest, AcceptsEveryBuiltInLoader) {
  for (const char* key : {"BAShapes", "Tree-Cycle", "Cora"})
    EXPECT_NO_THROW(d::ValidateDataset(MakeByKey(key))) << key;
}

TEST(ValidateDatasetTest, RejectsOutOfRangeLabel) {
  d::Dataset ds = MakeByKey("BAShapes");
  ds.labels[3] = ds.num_classes;  // one past the end
  EXPECT_THROW(d::ValidateDataset(ds), std::runtime_error);
  ds.labels[3] = -1;
  EXPECT_THROW(d::ValidateDataset(ds), std::runtime_error);
}

TEST(ValidateDatasetTest, RejectsLabelCountMismatch) {
  d::Dataset ds = MakeByKey("BAShapes");
  ds.labels.pop_back();
  EXPECT_THROW(d::ValidateDataset(ds), std::runtime_error);
}

TEST(ValidateDatasetTest, RejectsNonFiniteFeature) {
  d::Dataset ds = MakeByKey("BAShapes");
  auto broken = std::make_shared<ses::tensor::SparseMatrix>(*ds.features);
  broken->values[0] = std::numeric_limits<float>::quiet_NaN();
  ds.features = broken;
  EXPECT_THROW(d::ValidateDataset(ds), std::runtime_error);
}

TEST(ValidateDatasetTest, RejectsMalformedFeatureCsr) {
  d::Dataset ds = MakeByKey("BAShapes");
  auto broken = std::make_shared<ses::tensor::SparseMatrix>(*ds.features);
  broken->col_idx[0] = broken->cols;  // column index out of range
  ds.features = broken;
  EXPECT_THROW(d::ValidateDataset(ds), std::runtime_error);
}

TEST(ValidateDatasetTest, RejectsSplitIndexOutOfRange) {
  d::Dataset ds = MakeByKey("BAShapes");
  ds.val_idx.push_back(ds.num_nodes());
  EXPECT_THROW(d::ValidateDataset(ds), std::runtime_error);
}

TEST(ValidateDatasetTest, RejectsOutOfRangeMotifEdge) {
  d::Dataset ds = MakeByKey("BAShapes");
  ds.gt_motif_edges.emplace_back(0, ds.num_nodes() + 5);
  EXPECT_THROW(d::ValidateDataset(ds), std::runtime_error);
}

TEST(ValidateDatasetTest, ErrorNamesTheDataset) {
  d::Dataset ds = MakeByKey("BAShapes");
  ds.labels[0] = -1;
  try {
    d::ValidateDataset(ds);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(ds.name), std::string::npos)
        << e.what();
  }
}

TEST(GraphValidationTest, RejectsOutOfRangeEdgeEndpoint) {
  EXPECT_THROW(
      ses::graph::Graph::FromUndirectedEdges(3, {{0, 1}, {1, 3}}),
      std::runtime_error);
  EXPECT_THROW(
      ses::graph::Graph::FromUndirectedEdges(3, {{-1, 1}}),
      std::runtime_error);
}

}  // namespace
