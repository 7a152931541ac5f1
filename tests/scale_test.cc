// Million-node data plane, small-N legs (DESIGN.md §16): bulk graph
// builders, the scale generator, the partitioner's invariants, and the
// bitwise shard-parity contract of ShardedSession / ShardRouter. The >=100k
// legs live in scale_slow_test.cc (label: slow).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/inference_session.h"
#include "core/ses_model.h"
#include "core/sharded_session.h"
#include "data/scale.h"
#include "data/synthetic.h"
#include "graph/partition.h"
#include "models/encoders.h"
#include "obs/metrics.h"
#include "serve/shard_router.h"
#include "util/rng.h"
#include "omp_team.h"

namespace {

namespace c = ses::core;
namespace d = ses::data;
namespace g = ses::graph;

d::Dataset SmallBaShapes() {
  d::SyntheticOptions opt;
  opt.scale = 0.35;
  return d::MakeBaShapes(opt);
}

d::Dataset SmallScaleGraph(int64_t nodes = 3000, uint64_t seed = 7) {
  d::ScaleGraphOptions opt;
  opt.num_nodes = nodes;
  opt.seed = seed;
  return d::MakeScaleGraph(opt);
}

/// Bitwise equality of two logits tensors (the parity contract is exact
/// equality, not a tolerance).
void ExpectBitwiseEqual(const ses::tensor::Tensor& a,
                        const ses::tensor::Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.rows() * a.cols()) *
                            sizeof(float)),
            0);
}

std::vector<int64_t> AllNodes(const d::Dataset& ds) {
  std::vector<int64_t> nodes(static_cast<size_t>(ds.num_nodes()));
  for (int64_t i = 0; i < ds.num_nodes(); ++i) nodes[static_cast<size_t>(i)] = i;
  return nodes;
}

// --- Graph builders -----------------------------------------------------------

TEST(BulkGraphBuildTest, BulkMatchesSetBasedBuilder) {
  ses::util::Rng rng(3);
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int i = 0; i < 4000; ++i) {
    const int64_t u = static_cast<int64_t>(rng.UniformInt(500));
    const int64_t v = static_cast<int64_t>(rng.UniformInt(500));
    edges.emplace_back(u, v);  // any orientation, dups and self-loops too
  }
  const g::Graph a = g::Graph::FromUndirectedEdges(500, edges);
  const g::Graph b = g::Graph::FromUndirectedEdgesBulk(500, std::move(edges));
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.edges(), b.edges());
  for (int64_t v = 0; v < 500; ++v) {
    ASSERT_EQ(a.Degree(v), b.Degree(v));
    const auto na = a.Neighbors(v);
    const auto nb = b.Neighbors(v);
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
}

TEST(BulkGraphBuildTest, SortedUniqueBuilderRejectsDisorder) {
  std::vector<std::pair<int64_t, int64_t>> bad = {{1, 2}, {0, 3}};
  EXPECT_THROW(g::Graph::FromSortedUniqueEdges(4, std::move(bad)),
               std::logic_error);
}

// --- Scale generator ----------------------------------------------------------

TEST(ScaleGeneratorTest, DeterministicUnderSeed) {
  const d::Dataset a = SmallScaleGraph(2000, 11);
  const d::Dataset b = SmallScaleGraph(2000, 11);
  const d::Dataset c = SmallScaleGraph(2000, 12);
  EXPECT_EQ(d::DatasetDigest(a), d::DatasetDigest(b));
  EXPECT_NE(d::DatasetDigest(a), d::DatasetDigest(c));
}

TEST(ScaleGeneratorTest, PlantsMotifsWithGroundTruth) {
  const d::Dataset ds = SmallScaleGraph(2000);
  EXPECT_EQ(ds.num_classes, 5);
  EXPECT_TRUE(ds.HasGroundTruthExplanations());
  // Every ground-truth edge exists and connects motif nodes of motif labels.
  for (const auto& [u, v] : ds.gt_motif_edges) {
    EXPECT_TRUE(ds.graph.HasEdge(u, v));
    EXPECT_TRUE(ds.in_motif[static_cast<size_t>(u)]);
    EXPECT_TRUE(ds.in_motif[static_cast<size_t>(v)]);
    EXPECT_GT(ds.labels[static_cast<size_t>(u)], 0);
    EXPECT_GT(ds.labels[static_cast<size_t>(v)], 0);
  }
  // All five labels are populated (base + 3 house roles + cycle).
  std::set<int64_t> seen(ds.labels.begin(), ds.labels.end());
  EXPECT_EQ(seen.size(), 5u);
}

TEST(ScaleGeneratorTest, PowerLawExponentControlsSkew) {
  d::ScaleGraphOptions heavy;
  heavy.num_nodes = 5000;
  heavy.powerlaw_exponent = 2.2;
  heavy.seed = 5;
  d::ScaleGraphOptions light = heavy;
  light.powerlaw_exponent = 3.5;
  const d::Dataset a = d::MakeScaleGraph(heavy);
  const d::Dataset b = d::MakeScaleGraph(light);
  auto max_degree = [](const d::Dataset& ds) {
    int64_t m = 0;
    for (int64_t v = 0; v < ds.num_nodes(); ++v)
      m = std::max(m, ds.graph.Degree(v));
    return m;
  };
  // A heavier tail means bigger hubs; both far exceed the mean degree.
  EXPECT_GT(max_degree(a), max_degree(b));
  EXPECT_GT(max_degree(b),
            4 * (2 * a.graph.num_edges() / a.num_nodes()));
}

// --- Partitioner --------------------------------------------------------------

void CheckPartitionInvariants(const d::Dataset& ds, int64_t num_shards) {
  g::PartitionOptions opt;
  opt.num_shards = num_shards;
  const g::Partition part = g::Partitioner(opt).Run(ds.graph);
  ASSERT_EQ(part.num_shards(), num_shards);

  // Every node owned exactly once, and shard_of agrees with the owned lists.
  std::vector<int64_t> owner_count(static_cast<size_t>(ds.num_nodes()), 0);
  for (int64_t s = 0; s < num_shards; ++s)
    for (const int64_t v : part.shards[static_cast<size_t>(s)].owned) {
      ++owner_count[static_cast<size_t>(v)];
      EXPECT_EQ(part.shard_of[static_cast<size_t>(v)], s);
    }
  for (const int64_t c : owner_count) EXPECT_EQ(c, 1);

  // Every edge assigned to exactly one shard (owner of the min endpoint).
  int64_t owned_edges = 0;
  for (const auto& shard : part.shards) owned_edges += shard.num_owned_edges;
  EXPECT_EQ(owned_edges, ds.graph.num_edges());
  EXPECT_GE(part.edge_cut_fraction(), 0.0);
  EXPECT_LE(part.edge_cut_fraction(), 1.0);
  // The capacity bound is integral: ceil(slack * n / shards) owned nodes max
  // (the fractional slack itself can be overshot by rounding on small n).
  const auto capacity = static_cast<int64_t>(
      std::ceil(part.options.balance_slack *
                static_cast<double>(ds.num_nodes()) /
                static_cast<double>(num_shards)));
  for (const auto& shard : part.shards)
    EXPECT_LE(static_cast<int64_t>(shard.owned.size()), capacity);
  EXPECT_GE(part.balance(), 1.0);

  for (const auto& shard : part.shards) {
    // Node lists sorted, unique, and consistent.
    EXPECT_TRUE(std::is_sorted(shard.nodes.begin(), shard.nodes.end()));
    EXPECT_TRUE(std::is_sorted(shard.halo.begin(), shard.halo.end()));
    EXPECT_EQ(shard.nodes.size(), shard.owned.size() + shard.halo.size());

    // Ghost table closed under halo_hops: BFS in the FULL graph from the
    // owned set never leaves the shard's replicated node set.
    std::set<int64_t> members(shard.nodes.begin(), shard.nodes.end());
    std::set<int64_t> visited(shard.owned.begin(), shard.owned.end());
    std::vector<int64_t> frontier = shard.owned;
    for (int64_t hop = 0; hop < part.options.halo_hops; ++hop) {
      std::vector<int64_t> next;
      for (const int64_t v : frontier)
        for (const int64_t u : ds.graph.Neighbors(v))
          if (visited.insert(u).second) next.push_back(u);
      frontier = std::move(next);
    }
    for (const int64_t v : visited) EXPECT_TRUE(members.count(v));

    // The local graph is the induced subgraph: every local edge exists
    // globally, and owned nodes keep their exact global degree.
    for (const auto& [lu, lv] : shard.graph.edges())
      EXPECT_TRUE(ds.graph.HasEdge(shard.nodes[static_cast<size_t>(lu)],
                                   shard.nodes[static_cast<size_t>(lv)]));
    for (const int64_t v : shard.owned)
      EXPECT_EQ(shard.graph.Degree(shard.LocalOf(v)), ds.graph.Degree(v));
  }
}

TEST(PartitionerTest, InvariantsOnBaShapes) {
  CheckPartitionInvariants(SmallBaShapes(), 4);
}

TEST(PartitionerTest, InvariantsOnScaleGraph) {
  CheckPartitionInvariants(SmallScaleGraph(), 6);
}

// The 10k point of bench_scale: 10,000 base nodes, seed 42, 8 shards. The
// partitioner is deterministic and cut 0.652723 of the edges when this test
// was written, so a rise past 0.05 above that is a partition-quality
// regression, not noise.
TEST(PartitionerTest, EdgeCutOfTheBenchScale10kPointDoesNotRise) {
  g::PartitionOptions opt;
  opt.num_shards = 8;
  const g::Partition part =
      g::Partitioner(opt).Run(SmallScaleGraph(10000, 42).graph);
  EXPECT_LE(part.edge_cut_fraction(), 0.652723 + 0.05);
}

TEST(PartitionerTest, ExportsQualityMetrics) {
  const d::Dataset ds = SmallScaleGraph(2000);
  g::PartitionOptions opt;
  opt.num_shards = 5;
  g::Partitioner(opt).Run(ds.graph);
  auto& reg = ses::obs::MetricsRegistry::Get();
  EXPECT_EQ(reg.GetGauge("ses.partition.shards").Value(), 5.0);
  const double cut = reg.GetGauge("ses.partition.edge_cut_fraction").Value();
  EXPECT_GE(cut, 0.0);
  EXPECT_LE(cut, 1.0);
  EXPECT_GE(reg.GetGauge("ses.partition.balance").Value(), 1.0);
  EXPECT_GT(reg.GetGauge("ses.partition.max_shard_nodes").Value(), 0.0);
}

// --- Bitwise shard parity -----------------------------------------------------

void CheckEncoderParity(const d::Dataset& ds, const std::string& backbone,
                        int64_t num_shards) {
  ses::util::Rng rng(17);
  auto encoder = ses::models::MakeEncoder(backbone, ds.num_features(), 16,
                                          ds.num_classes, &rng);
  c::InferenceSession single(encoder.get(), &ds);
  c::ShardedSessionOptions opt;
  opt.partition.num_shards = num_shards;
  c::ShardedSession sharded(encoder.get(), &ds, opt);

  const std::vector<int64_t> nodes = AllNodes(ds);
  ExpectBitwiseEqual(single.GatherLogits(nodes), sharded.GatherLogits(nodes));
  EXPECT_EQ(single.PredictMany(nodes), sharded.PredictMany(nodes));
}

TEST(ShardedSessionTest, BitwiseParityOnBaShapesGcn) {
  CheckEncoderParity(SmallBaShapes(), "GCN", 4);
}

TEST(ShardedSessionTest, BitwiseParityOnScaleGraphAllBackbones) {
  const ses::test::ScopedOmpTeam team(4);
  const d::Dataset ds = SmallScaleGraph();
  for (const std::string backbone : {"GCN", "GAT", "GIN", "SAGE"})
    CheckEncoderParity(ds, backbone, 4);
}

// The HaloExchange tests and RoutedPredictionsMatchDirectCalls run their
// shard builds and routed reads on worker and builder threads, which a
// ScopedOmpTeam does not reach: ctest gives them OMP_NUM_THREADS=4
// (tests/CMakeLists.txt).
TEST(ShardedSessionTest, HaloExchangeTracksFeatureUpdates) {
  const d::Dataset base = SmallScaleGraph(1500);
  d::Dataset ds = base;
  ses::util::Rng rng(5);
  auto encoder = ses::models::MakeEncoder("GCN", ds.num_features(), 16,
                                          ds.num_classes, &rng);
  c::InferenceSession single(encoder.get(), &ds);
  c::ShardedSessionOptions opt;
  opt.partition.num_shards = 3;
  c::ShardedSession sharded(encoder.get(), &ds, opt);
  const std::vector<int64_t> nodes = AllNodes(ds);
  ExpectBitwiseEqual(single.GatherLogits(nodes), sharded.GatherLogits(nodes));
  EXPECT_EQ(sharded.stats().exchanges, 1);
  EXPECT_GT(sharded.stats().halo_rows, 0);

  // Mutate the global features; a fresh halo exchange must propagate the new
  // rows into every shard and parity must hold again.
  auto scaled = std::make_shared<ses::tensor::SparseMatrix>(*ds.features);
  for (float& v : scaled->values) v *= 2.0f;
  ds.features = std::move(scaled);
  single.InvalidateGraph();
  sharded.InvalidateGraph();
  ExpectBitwiseEqual(single.GatherLogits(nodes), sharded.GatherLogits(nodes));
  EXPECT_EQ(sharded.stats().exchanges, 2);
}

TEST(ShardedSessionTest, HaloExchangeIsSafeAgainstConcurrentRouterReads) {
  // One thread swaps the global features and re-runs the halo exchange
  // while routed reads run on the shard workers. Each shard build reads only
  // the features handle its session captured at the bump, so no exchange
  // can change rows under a build (run under TSan), and every answer is the
  // whole-graph answer for one of the two feature sets.
  d::Dataset ds = SmallScaleGraph(1500);
  ses::util::Rng rng(9);
  auto encoder = ses::models::MakeEncoder("GCN", ds.num_features(), 16,
                                          ds.num_classes, &rng);
  const auto features_a = ds.features;
  auto negated = std::make_shared<ses::tensor::SparseMatrix>(*features_a);
  for (float& v : negated->values) v *= -1.5f;
  const std::shared_ptr<const ses::tensor::SparseMatrix> features_b =
      std::move(negated);
  const std::vector<int64_t> nodes = AllNodes(ds);
  std::vector<int64_t> reference_a, reference_b;
  {
    c::InferenceSession single(encoder.get(), &ds);
    reference_a = single.PredictMany(nodes);
    d::Dataset ds_b = ds;
    ds_b.features = features_b;
    c::InferenceSession single_b(encoder.get(), &ds_b);
    reference_b = single_b.PredictMany(nodes);
  }

  c::ShardedSessionOptions opt;
  opt.partition.num_shards = 3;
  c::ShardedSession sharded(encoder.get(), &ds, opt);
  ses::serve::ShardRouter router(&sharded);
  std::thread writer([&] {
    for (int i = 0; i < 24; ++i) {
      ds.features = i % 2 == 0 ? features_b : features_a;
      sharded.InvalidateGraph();
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  int mismatches = 0;
  for (int i = 0; i < 600; ++i) {
    const int64_t node = (i * 37) % ds.num_nodes();
    const int64_t cls = router.SubmitPredict(node).Get();
    const size_t n = static_cast<size_t>(node);
    mismatches += cls != reference_a[n] && cls != reference_b[n];
  }
  writer.join();
  router.Stop();
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(sharded.stats().exchanges, 25);
}

TEST(ShardedSessionTest, SesModelParityIncludingExplanations) {
  const ses::test::ScopedOmpTeam team(4);
  d::Dataset ds = SmallBaShapes();
  c::SesOptions opt;
  opt.backbone = "GCN";
  c::SesModel model(opt);
  ses::models::TrainConfig cfg;
  cfg.epochs = 25;
  cfg.hidden = 16;
  cfg.dropout = 0.2f;
  cfg.seed = 1;
  model.Fit(ds, cfg);

  c::InferenceSession single(&model, &ds);
  c::ShardedSessionOptions sopt;
  sopt.partition.num_shards = 4;
  c::ShardedSession sharded(&model, &ds, sopt);

  const std::vector<int64_t> nodes = AllNodes(ds);
  ExpectBitwiseEqual(single.GatherLogits(nodes), sharded.GatherLogits(nodes));
  for (const int64_t node : {0L, 7L, ds.num_nodes() - 1}) {
    const auto a = single.ExplainNode(node, 6);
    const auto b = sharded.ExplainNode(node, 6);
    EXPECT_EQ(a.neighbors, b.neighbors);
    EXPECT_EQ(a.scores, b.scores);
  }
}

TEST(ShardedSessionTest, ParityHoldsWhenShardsPickAnotherSpmmVariant) {
  const ses::test::ScopedOmpTeam team(4);
  // Tree-Cycle's four shards are a few hundred edges each, the size where
  // an earlier plan switched shards to an edge-order kernel. The CSR kernel
  // keeps edge order per row at every size, so the outputs agree bit for
  // bit.
  d::Dataset ds = d::MakeTreeCycle();
  c::SesOptions opt;
  opt.backbone = "GCN";
  c::SesModel model(opt);
  ses::models::TrainConfig cfg;
  cfg.epochs = 10;
  cfg.hidden = 16;
  cfg.seed = 2;
  model.Fit(ds, cfg);

  c::InferenceSession single(&model, &ds);
  c::ShardedSessionOptions sopt;
  sopt.partition.num_shards = 4;
  c::ShardedSession sharded(&model, &ds, sopt);

  const std::vector<int64_t> nodes = AllNodes(ds);
  ExpectBitwiseEqual(single.GatherLogits(nodes), sharded.GatherLogits(nodes));
  EXPECT_EQ(single.PredictMany(nodes), sharded.PredictMany(nodes));
  for (int64_t node = 0; node < ds.num_nodes(); node += 37) {
    const auto a = single.ExplainNode(node, 6);
    const auto b = sharded.ExplainNode(node, 6);
    EXPECT_EQ(a.neighbors, b.neighbors);
    EXPECT_EQ(a.scores, b.scores);
  }
}

// --- ShardRouter --------------------------------------------------------------

TEST(ShardRouterTest, RoutedPredictionsMatchDirectCalls) {
  const d::Dataset ds = SmallScaleGraph(2000);
  ses::util::Rng rng(23);
  auto encoder = ses::models::MakeEncoder("GCN", ds.num_features(), 16,
                                          ds.num_classes, &rng);
  c::ShardedSessionOptions opt;
  opt.partition.num_shards = 4;
  c::ShardedSession sharded(encoder.get(), &ds, opt);
  ses::serve::ShardRouter router(&sharded);
  ASSERT_EQ(router.num_shards(), 4);

  std::vector<int64_t> nodes;
  for (int i = 0; i < 96; ++i)
    nodes.push_back(static_cast<int64_t>(rng.UniformInt(
        static_cast<uint64_t>(ds.num_nodes()))));

  std::vector<ses::serve::PredictFuture> futures;
  futures.reserve(nodes.size());
  for (const int64_t n : nodes) futures.push_back(router.SubmitPredict(n));
  for (size_t i = 0; i < nodes.size(); ++i)
    EXPECT_EQ(futures[i].Get(), sharded.PredictNode(nodes[i]));

  std::vector<ses::serve::PredictFuture> stream(nodes.size());
  EXPECT_EQ(router.SubmitPredictStream(nodes.data(),
                                       static_cast<int64_t>(nodes.size()),
                                       stream.data()),
            static_cast<int64_t>(nodes.size()));
  for (size_t i = 0; i < nodes.size(); ++i)
    EXPECT_EQ(stream[i].Get(), sharded.PredictNode(nodes[i]));

  const auto row = router.SubmitLogitsRow(nodes[0]).Get();
  const auto direct = sharded.GatherLogits({nodes[0]});
  ASSERT_EQ(static_cast<int64_t>(row.size()), direct.cols());
  EXPECT_EQ(std::memcmp(row.data(), direct.data(),
                        row.size() * sizeof(float)),
            0);

  const auto stats = router.stats();
  EXPECT_GE(stats.requests, static_cast<int64_t>(2 * nodes.size()));
  router.Stop();
  router.Stop();  // idempotent
}

}  // namespace
