// Smoke tests for the inference fast path: tape-free forwards and the
// InferenceSession artifact/logits caches.
#include <gtest/gtest.h>

#include "autograd/variable.h"
#include "core/inference_session.h"
#include "core/ses_model.h"
#include "data/synthetic.h"
#include "nn/feature_input.h"
#include "util/rng.h"
#include "omp_team.h"

namespace ag = ses::autograd;
namespace c = ses::core;
namespace t = ses::tensor;

namespace {

ses::data::Dataset TinyDataset(const std::string& name) {
  ses::data::SyntheticOptions opt;
  opt.scale = 0.25;
  return ses::data::MakeSyntheticByName(name, opt);
}

c::SesModel TrainTinyModel(const ses::data::Dataset& ds) {
  c::SesOptions opt;
  opt.backbone = "GCN";
  c::SesModel model(opt);
  ses::models::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.hidden = 16;
  cfg.seed = 1;
  model.Fit(ds, cfg);
  return model;
}

/// The tape path: a full taped eval forward, mirroring what
/// SesModel::Logits did before InferenceGuard existed.
t::Tensor TapedLogits(const c::SesModel& model, const ses::data::Dataset& ds) {
  ses::util::Rng rng(0);
  auto edges = ds.graph.DirectedEdges(/*add_self_loops=*/true);
  ses::nn::FeatureInput input =
      (model.options().use_feature_mask && model.feature_mask_nnz().size() > 0)
          ? ses::nn::FeatureInput::Sparse(
                ds.features, ag::Variable::Constant(model.feature_mask_nnz()))
          : ses::models::MakeInput(ds);
  ag::Variable adj_mask;
  if (model.options().use_structure_mask &&
      model.structure_mask_adj().size() > 0)
    adj_mask = ag::Variable::Constant(model.structure_mask_adj());
  return model.encoder()
      ->Forward(input, edges, adj_mask, 0.0f, /*training=*/false, &rng)
      .logits.value();
}

class PerfSmokeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PerfSmokeTest, SessionLogitsBitwiseMatchTapePath) {
  const ses::test::ScopedOmpTeam team(4);
  auto ds = TinyDataset(GetParam());
  auto model = TrainTinyModel(ds);
  const t::Tensor taped = TapedLogits(model, ds);

  c::InferenceSession session(&model, &ds);
  // Cold query builds artifacts, warm query replays the memo — both must be
  // bitwise identical to the tape-building path.
  EXPECT_EQ(session.Logits().MaxAbsDiff(taped), 0.0f);
  EXPECT_EQ(session.Logits().MaxAbsDiff(taped), 0.0f);
  EXPECT_EQ(session.ForwardLogits().MaxAbsDiff(taped), 0.0f);
  const auto stats = session.stats();
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_GE(stats.cache_hits, 1);
}

INSTANTIATE_TEST_SUITE_P(Datasets, PerfSmokeTest,
                         ::testing::Values("BAShapes", "Tree-Cycle"));

TEST(InferenceGuardTest, GuardedEvalForwardAllocatesNoTapeNodes) {
  auto ds = TinyDataset("BAShapes");
  auto model = TrainTinyModel(ds);

  // The taped path must create tape nodes...
  const uint64_t before_tape = ag::TapeNodesCreated();
  TapedLogits(model, ds);
  EXPECT_GT(ag::TapeNodesCreated(), before_tape);

  // ...and the same forward under the guard must create none.
  const uint64_t before_guarded = ag::TapeNodesCreated();
  {
    ag::InferenceGuard no_grad;
    TapedLogits(model, ds);
  }
  EXPECT_EQ(ag::TapeNodesCreated(), before_guarded);

  // Model eval entry points route through the guard themselves.
  const uint64_t before_eval = ag::TapeNodesCreated();
  model.Logits(ds);
  EXPECT_EQ(ag::TapeNodesCreated(), before_eval);
}

}  // namespace
