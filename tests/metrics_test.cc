#include <gtest/gtest.h>
#include <cmath>

#include "data/synthetic.h"
#include "metrics/fidelity.h"
#include "metrics/metrics.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "omp_team.h"

namespace m = ses::metrics;
namespace t = ses::tensor;

namespace {

TEST(AucTest, PerfectRanking) {
  std::vector<float> scores{0.9f, 0.8f, 0.2f, 0.1f};
  std::vector<int> labels{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(m::RocAuc(scores, labels), 1.0);
}

TEST(AucTest, InvertedRanking) {
  std::vector<float> scores{0.1f, 0.2f, 0.8f, 0.9f};
  std::vector<int> labels{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(m::RocAuc(scores, labels), 0.0);
}

TEST(AucTest, AllTiedIsChance) {
  std::vector<float> scores{0.5f, 0.5f, 0.5f, 0.5f};
  std::vector<int> labels{1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(m::RocAuc(scores, labels), 0.5);
}

TEST(AucTest, DegenerateClassesReturnChance) {
  EXPECT_DOUBLE_EQ(m::RocAuc({0.1f, 0.9f}, {1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(m::RocAuc({0.1f, 0.9f}, {0, 0}), 0.5);
}

TEST(AucTest, HalfOverlap) {
  // pos: {0.8, 0.4}, neg: {0.6, 0.2} -> 3 of 4 pairs correctly ordered.
  std::vector<float> scores{0.8f, 0.4f, 0.6f, 0.2f};
  std::vector<int> labels{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(m::RocAuc(scores, labels), 0.75);
}

TEST(AucTest, InvariantToMonotoneTransform) {
  ses::util::Rng rng(1);
  std::vector<float> scores;
  std::vector<int> labels;
  for (int i = 0; i < 100; ++i) {
    scores.push_back(rng.Uniform(0.0f, 1.0f));
    labels.push_back(rng.Bernoulli(0.4) ? 1 : 0);
  }
  const double base = m::RocAuc(scores, labels);
  for (auto& s : scores) s = std::exp(3.0f * s) + 7.0f;
  EXPECT_NEAR(m::RocAuc(scores, labels), base, 1e-12);
}

TEST(ExplanationAucTest, OracleScoresGiveOne) {
  auto ds = ses::data::MakeBaShapes();
  std::vector<float> scores(ds.graph.edges().size(), 0.0f);
  for (size_t i = 0; i < scores.size(); ++i) {
    auto [u, v] = ds.graph.edges()[i];
    if (ds.IsMotifEdge(u, v)) scores[i] = 1.0f;
  }
  EXPECT_DOUBLE_EQ(m::ExplanationAuc(ds, scores), 1.0);
}

TEST(ExplanationAucTest, RandomScoresNearChance) {
  auto ds = ses::data::MakeBaShapes();
  ses::util::Rng rng(2);
  std::vector<float> scores(ds.graph.edges().size());
  for (auto& s : scores) s = rng.Uniform(0.0f, 1.0f);
  EXPECT_NEAR(m::ExplanationAuc(ds, scores), 0.5, 0.05);
}

TEST(SilhouetteTest, WellSeparatedClustersScoreHigh) {
  const ses::test::ScopedOmpTeam team(4);
  ses::util::Rng rng(3);
  t::Tensor emb(60, 2);
  std::vector<int64_t> labels(60);
  for (int64_t i = 0; i < 60; ++i) {
    const int64_t c = i % 3;
    labels[static_cast<size_t>(i)] = c;
    emb.At(i, 0) = static_cast<float>(10.0 * c + rng.Normal(0, 0.1));
    emb.At(i, 1) = static_cast<float>(rng.Normal(0, 0.1));
  }
  EXPECT_GT(m::SilhouetteScore(emb, labels), 0.9);
}

TEST(SilhouetteTest, RandomLabelsScoreNearZero) {
  const ses::test::ScopedOmpTeam team(4);
  ses::util::Rng rng(4);
  t::Tensor emb = t::Tensor::Randn(80, 4, &rng);
  std::vector<int64_t> labels(80);
  for (auto& l : labels) l = static_cast<int64_t>(rng.UniformInt(4));
  const double s = m::SilhouetteScore(emb, labels);
  EXPECT_GT(s, -0.2);
  EXPECT_LT(s, 0.2);
}

TEST(CalinskiHarabaszTest, SeparationIncreasesScore) {
  ses::util::Rng rng(5);
  std::vector<int64_t> labels(40);
  t::Tensor tight(40, 2), loose(40, 2);
  for (int64_t i = 0; i < 40; ++i) {
    const int64_t c = i % 2;
    labels[static_cast<size_t>(i)] = c;
    tight.At(i, 0) = static_cast<float>(20.0 * c + rng.Normal(0, 0.5));
    tight.At(i, 1) = static_cast<float>(rng.Normal(0, 0.5));
    loose.At(i, 0) = static_cast<float>(2.0 * c + rng.Normal(0, 2.0));
    loose.At(i, 1) = static_cast<float>(rng.Normal(0, 2.0));
  }
  EXPECT_GT(m::CalinskiHarabaszScore(tight, labels),
            m::CalinskiHarabaszScore(loose, labels));
}

TEST(CalinskiHarabaszTest, SingleClusterIsZero) {
  ses::util::Rng rng(6);
  t::Tensor emb = t::Tensor::Randn(10, 3, &rng);
  std::vector<int64_t> labels(10, 0);
  EXPECT_DOUBLE_EQ(m::CalinskiHarabaszScore(emb, labels), 0.0);
}

TEST(SummarizeTest, MeanAndStd) {
  auto s = m::Summarize({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.std, 2.0);
  auto single = m::Summarize({5.0});
  EXPECT_DOUBLE_EQ(single.mean, 5.0);
  EXPECT_DOUBLE_EQ(single.std, 0.0);
}

TEST(FidelityTest, MaskTopFeaturesZeroesHighestScored) {
  // 1 node, 4 features; scores rank feature order 2 > 0 > 3 > 1.
  t::Tensor dense{{1.0f, 2.0f, 3.0f, 4.0f}};
  ses::data::Dataset ds;
  ds.name = "mini";
  ds.graph = ses::graph::Graph::FromUndirectedEdges(1, {});
  ds.features = std::make_shared<t::SparseMatrix>(
      t::SparseMatrix::FromDense(dense));
  ds.labels = {0};
  ds.num_classes = 1;
  std::vector<float> scores{0.5f, 0.1f, 0.9f, 0.3f};
  auto masked = m::MaskTopFeatures(ds, scores, 2);
  t::Tensor out = masked.features->ToDense();
  EXPECT_FLOAT_EQ(out.At(0, 0), 0.0f);  // score 0.5, 2nd highest
  EXPECT_FLOAT_EQ(out.At(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(out.At(0, 2), 0.0f);  // score 0.9, highest
  EXPECT_FLOAT_EQ(out.At(0, 3), 4.0f);
  // Original untouched.
  EXPECT_FLOAT_EQ(ds.features->ToDense().At(0, 2), 3.0f);
}

TEST(FidelityTest, TopKLargerThanRowIsSafe) {
  t::Tensor dense{{1.0f, 2.0f}};
  ses::data::Dataset ds;
  ds.graph = ses::graph::Graph::FromUndirectedEdges(1, {});
  ds.features = std::make_shared<t::SparseMatrix>(
      t::SparseMatrix::FromDense(dense));
  auto masked = m::MaskTopFeatures(ds, {0.1f, 0.2f}, 10);
  EXPECT_FLOAT_EQ(masked.features->ToDense().Norm(), 0.0f);
}

}  // namespace
