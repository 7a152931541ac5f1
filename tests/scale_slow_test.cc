// Million-node data plane, >=100k-node legs (label: slow — Release job
// only; the small-N tier1 legs are in scale_test.cc). Checks that the
// generator stays deterministic, the partitioner keeps its invariants, and
// the bitwise shard-parity contract holds at a scale where the graph no
// longer fits in cache. Also holds SES's quality on the 10k-node graph
// with the benchmark's training settings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/inference_session.h"
#include "core/ses_model.h"
#include "core/sharded_session.h"
#include "data/scale.h"
#include "metrics/metrics.h"
#include "models/encoders.h"
#include "models/node_classifier.h"
#include "util/rng.h"

namespace {

namespace c = ses::core;
namespace d = ses::data;

d::Dataset Graph100k(uint64_t seed = 42) {
  d::ScaleGraphOptions opt;
  opt.num_nodes = 100000;
  opt.seed = seed;
  return d::MakeScaleGraph(opt);
}

TEST(ScaleSlowTest, DeterministicAt100k) {
  EXPECT_EQ(d::DatasetDigest(Graph100k()), d::DatasetDigest(Graph100k()));
}

TEST(ScaleSlowTest, PartitionInvariantsAndBitwiseParityAt100k) {
  const d::Dataset ds = Graph100k();
  EXPECT_GT(ds.graph.num_edges(), 3 * ds.num_nodes());  // avg degree ~8

  ses::util::Rng rng(9);
  auto encoder = ses::models::MakeEncoder("GCN", ds.num_features(), 32,
                                          ds.num_classes, &rng);
  c::InferenceSession single(encoder.get(), &ds);
  c::ShardedSessionOptions opt;
  opt.partition.num_shards = 8;
  c::ShardedSession sharded(encoder.get(), &ds, opt);

  // Partition invariants at scale: every node owned once, every edge
  // assigned exactly once, capacity respected.
  const ses::graph::Partition& part = sharded.partition();
  int64_t owned_nodes = 0, owned_edges = 0;
  for (const auto& shard : part.shards) {
    owned_nodes += static_cast<int64_t>(shard.owned.size());
    owned_edges += shard.num_owned_edges;
  }
  EXPECT_EQ(owned_nodes, ds.num_nodes());
  EXPECT_EQ(owned_edges, ds.graph.num_edges());
  // Integral capacity bound (ceil rounding can overshoot the raw slack).
  const auto capacity = static_cast<int64_t>(
      std::ceil(part.options.balance_slack *
                static_cast<double>(ds.num_nodes()) / 8.0));
  for (const auto& shard : part.shards)
    EXPECT_LE(static_cast<int64_t>(shard.owned.size()), capacity);
  EXPECT_GT(part.edge_cut_fraction(), 0.0);
  EXPECT_LT(part.edge_cut_fraction(), 1.0);

  // Bitwise parity: full argmax agreement plus exact logit rows on a sample.
  std::vector<int64_t> all(static_cast<size_t>(ds.num_nodes()));
  for (int64_t i = 0; i < ds.num_nodes(); ++i) all[static_cast<size_t>(i)] = i;
  EXPECT_EQ(single.PredictMany(all), sharded.PredictMany(all));

  std::vector<int64_t> sample;
  for (int i = 0; i < 2048; ++i)
    sample.push_back(static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(ds.num_nodes()))));
  const auto a = single.GatherLogits(sample);
  const auto b = sharded.GatherLogits(sample);
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.rows() * a.cols()) *
                            sizeof(float)),
            0);
}

TEST(ScaleSlowTest, SesFitKeepsAccuracyAndExplanationAucAt10k) {
  // The perfbench `train` settings: GCN, hidden 32, 8 + 4 epochs, lr 0.01,
  // on the 10k-node graph of each seed. Measured: test_acc 0.98919,
  // 0.98950, 0.98909, 0.99337 and explain_auc 1, 1, 1, 0.99333.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    d::ScaleGraphOptions opt;
    opt.num_nodes = 10000;
    opt.seed = seed;
    const d::Dataset ds = d::MakeScaleGraph(opt);
    c::SesOptions options;
    options.backbone = "GCN";
    options.epl_epochs = 4;
    ses::models::TrainConfig config;
    config.epochs = 8;
    config.hidden = 32;
    config.lr = 0.01f;
    config.seed = seed;
    c::SesModel model(options);
    model.Fit(ds, config);
    const double test_acc =
        ses::models::Accuracy(model.Logits(ds), ds.labels, ds.test_idx);
    const double explain_auc =
        ses::metrics::ExplanationAuc(ds, model.EdgeScores(ds));
    EXPECT_GE(test_acc, 0.985) << "seed " << seed;
    EXPECT_GE(explain_auc, 0.99) << "seed " << seed;
  }
}

}  // namespace
