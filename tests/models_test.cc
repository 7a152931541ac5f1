#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "data/real_world.h"
#include "data/synthetic.h"
#include "models/asdgn.h"
#include "models/backbone_models.h"
#include "models/fused_gat.h"
#include "models/protgnn.h"
#include "models/segnn.h"
#include "models/train_loop.h"
#include "models/unimp.h"
#include "core/ses_model.h"
#include "nn/linear.h"

namespace ag = ses::autograd;
namespace md = ses::models;

namespace {

ses::data::Dataset EasyDataset() {
  // Small, homophilous, feature-informative: every sane model should clear
  // 60% on it with a short budget.
  return ses::data::MakeRealWorldByName("Cora", /*scale=*/0.08, /*seed=*/3);
}

md::TrainConfig QuickConfig() {
  md::TrainConfig cfg;
  cfg.epochs = 40;
  cfg.hidden = 32;
  cfg.dropout = 0.2f;
  cfg.seed = 1;
  return cfg;
}

// Every NodeClassifier must learn the easy dataset and produce consistent
// shapes. Parameterized over the model zoo.
class ModelZooTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelZooTest, LearnsEasyDataset) {
  auto ds = EasyDataset();
  std::unique_ptr<md::NodeClassifier> model;
  const std::string name = GetParam();
  if (name == "GCN" || name == "GAT" || name == "GIN" || name == "SAGE")
    model = std::make_unique<md::BackboneModel>(name);
  else if (name == "UniMP")
    model = std::make_unique<md::UniMpModel>();
  else if (name == "FusedGAT")
    model = std::make_unique<md::FusedGatModel>();
  else if (name == "ASDGN")
    model = std::make_unique<md::AsdgnModel>();
  else if (name == "SEGNN")
    model = std::make_unique<md::SegnnModel>();
  else
    model = std::make_unique<md::ProtGnnModel>();

  model->Fit(ds, QuickConfig());
  auto logits = model->Logits(ds);
  EXPECT_EQ(logits.rows(), ds.num_nodes());
  EXPECT_EQ(logits.cols(), ds.num_classes);
  const double acc = md::Accuracy(logits, ds.labels, ds.test_idx);
  // ProtGNN's prototype bottleneck genuinely trails the backbones (the
  // paper's Table 3 shows the same); it gets a lower bar.
  EXPECT_GT(acc, name == "ProtGNN" ? 0.35 : 0.55) << name << " acc " << acc;
  auto emb = model->Embeddings(ds);
  EXPECT_EQ(emb.rows(), ds.num_nodes());
  EXPECT_GT(emb.cols(), 1);
}

INSTANTIATE_TEST_SUITE_P(Zoo, ModelZooTest,
                         ::testing::Values("GCN", "GAT", "GIN", "SAGE",
                                           "UniMP", "FusedGAT", "ASDGN",
                                           "SEGNN", "ProtGNN"));

TEST(BackboneTest, BestValSnapshotNotWorseThanFinal) {
  auto ds = EasyDataset();
  md::BackboneModel with("GCN");
  auto cfg = QuickConfig();
  with.Fit(ds, cfg);
  md::BackboneModel without("GCN");
  cfg.track_best_val = false;
  without.Fit(ds, cfg);
  // Both are reasonable; the snapshotted one should not be dramatically
  // worse on validation (it is selected for it).
  const double val_with = md::Accuracy(with.Logits(ds), ds.labels, ds.val_idx);
  const double val_without =
      md::Accuracy(without.Logits(ds), ds.labels, ds.val_idx);
  EXPECT_GE(val_with + 1e-9, val_without - 0.1);
}

// The loop's guard: a non-finite step leaves parameters and Adam state
// untouched, and without a checkpoint a streak past max_bad_steps keeps
// skipping instead of rolling back.
TEST(TrainLoopTest, NonFiniteStepsAreSkippedAndBestValIsRestored) {
  auto p = ag::Variable::Parameter(ses::tensor::Tensor::Ones(1, 2));
  md::TrainConfig cfg;
  cfg.lr = 0.1f;
  cfg.weight_decay = 0.0f;
  cfg.max_bad_steps = 2;
  ses::util::Rng rng(0);
  md::TrainLoop loop("toy", "fit", {p}, {"p"}, cfg, &rng);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<md::TrainLoop::Verdict> verdicts;
  std::vector<float> values;
  loop.Run(0, 6, "test/epoch", [&](int64_t epoch) {
    ag::Variable loss = ag::MeanAll(ag::Mul(p, p));
    if (epoch >= 2 && epoch <= 4) loss = ag::Scale(loss, nan);
    verdicts.push_back(loop.Step(loss));
    values.push_back(p.value()[0]);
    // Epoch 1 validates best; the loop must end on its parameters.
    if (verdicts.back() == md::TrainLoop::Verdict::kStepped)
      loop.OfferBest(epoch == 1 ? 1.0 : 0.5);
  });
  using V = md::TrainLoop::Verdict;
  EXPECT_EQ(verdicts, (std::vector<V>{V::kStepped, V::kStepped, V::kSkipped,
                                      V::kSkipped, V::kSkipped, V::kStepped}));
  EXPECT_LT(values[1], values[0]);
  EXPECT_EQ(values[4], values[1]);  // three skips: no NaN reached the weights
  EXPECT_LT(values[5], values[4]);
  EXPECT_TRUE(std::isfinite(values[5]));
  EXPECT_EQ(p.value()[0], values[1]);  // best-val parameters restored
}

TEST(AccuracyTest, ComputesFraction) {
  ses::tensor::Tensor logits{{0.9f, 0.1f}, {0.2f, 0.8f}, {0.7f, 0.3f}};
  std::vector<int64_t> labels{0, 1, 1};
  EXPECT_DOUBLE_EQ(md::Accuracy(logits, labels, {0, 1, 2}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(md::Accuracy(logits, labels, {2}), 0.0);
  EXPECT_DOUBLE_EQ(md::Accuracy(logits, labels, {}), 0.0);
}

TEST(SegnnTest, EdgeScoresFavorSameClassPairs) {
  auto ds = EasyDataset();
  md::SegnnModel segnn;
  segnn.Fit(ds, QuickConfig());
  auto scores = segnn.EdgeScores(ds);
  ASSERT_EQ(scores.size(), ds.graph.edges().size());
  double same = 0.0, diff = 0.0;
  int64_t n_same = 0, n_diff = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    auto [u, v] = ds.graph.edges()[i];
    if (ds.labels[static_cast<size_t>(u)] == ds.labels[static_cast<size_t>(v)]) {
      same += scores[i];
      ++n_same;
    } else {
      diff += scores[i];
      ++n_diff;
    }
  }
  ASSERT_GT(n_same, 0);
  ASSERT_GT(n_diff, 0);
  EXPECT_GT(same / n_same, diff / n_diff);
}

TEST(ProtGnnTest, PrototypesHaveExpectedShape) {
  auto ds = EasyDataset();
  md::ProtGnnModel prot("GCN", /*protos_per_class=*/2);
  prot.Fit(ds, QuickConfig());
  auto protos = prot.Prototypes();
  EXPECT_EQ(protos.rows(), 2 * ds.num_classes);
  EXPECT_EQ(protos.cols(), QuickConfig().hidden);
}

TEST(ModuleSerializationTest, SaveLoadRoundTripPreservesPredictions) {
  auto ds = EasyDataset();
  md::BackboneModel original("GCN");
  original.Fit(ds, QuickConfig());
  auto before = original.Logits(ds);
  const std::string path = "test_artifacts/gcn_params.bin";
  const_cast<md::Encoder*>(original.encoder())->SaveParameters(path);

  // Fresh model with different init; loading must reproduce predictions.
  md::BackboneModel restored("GCN");
  auto cfg = QuickConfig();
  cfg.epochs = 1;
  cfg.seed = 999;
  restored.Fit(ds, cfg);
  const_cast<md::Encoder*>(restored.encoder())->LoadParameters(path);
  EXPECT_LT(restored.Logits(ds).MaxAbsDiff(before), 1e-6f);
}

TEST(ModuleSerializationTest, LoadRejectsShapeMismatch) {
  ses::util::Rng rng(1);
  ses::nn::Mlp small({4, 8, 2}, &rng), big({4, 16, 2}, &rng);
  small.SaveParameters("test_artifacts/mlp_small.bin");
  EXPECT_THROW(big.LoadParameters("test_artifacts/mlp_small.bin"),
               std::logic_error);
}

TEST(SesBackboneTest, RunsOnGinAndSage) {
  auto ds = EasyDataset();
  for (const std::string backbone : {"GIN", "SAGE"}) {
    ses::core::SesOptions opt;
    opt.backbone = backbone;
    ses::core::SesModel model(opt);
    auto cfg = QuickConfig();
    cfg.epochs = 25;
    model.Fit(ds, cfg);
    EXPECT_GT(md::Accuracy(model.Logits(ds), ds.labels, ds.test_idx), 0.5)
        << backbone;
    EXPECT_EQ(model.EdgeScores(ds).size(), ds.graph.edges().size());
  }
}

TEST(UniMpTest, LabelPropagationHelpsOverFeatureOnlyGraph) {
  // With very few informative features, labels carried by message passing
  // still let UniMP beat chance.
  auto ds = EasyDataset();
  md::UniMpModel unimp;
  unimp.Fit(ds, QuickConfig());
  EXPECT_GT(md::Accuracy(unimp.Logits(ds), ds.labels, ds.test_idx),
            1.2 / ds.num_classes);
}

}  // namespace
