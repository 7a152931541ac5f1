#include <gtest/gtest.h>
#include <cmath>
#include <cstring>

#include <set>
#include <string>
#include <vector>

#include "autograd/grad_check.h"
#include "core/mask_generator.h"
#include "core/pairs.h"
#include "core/ses_model.h"
#include "data/scale.h"
#include "data/synthetic.h"
#include "graph/sampling.h"
#include "metrics/metrics.h"
#include "models/backbone_models.h"
#include "obs/model_health.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "omp_team.h"

namespace ag = ses::autograd;
namespace c = ses::core;
namespace g = ses::graph;
namespace t = ses::tensor;

namespace {

ses::data::Dataset SmallDataset() {
  ses::data::SyntheticOptions opt;
  opt.scale = 0.35;
  return ses::data::MakeBaShapes(opt);
}

TEST(MaskGeneratorTest, FeatureMaskShapeAndRange) {
  ses::util::Rng rng(1);
  auto ds = SmallDataset();
  c::MaskGenerator gen(16, ds.num_features(), &rng);
  auto h = ag::Variable::Constant(t::Tensor::Randn(ds.num_nodes(), 16, &rng));
  auto mask = gen.FeatureMask(h, ds.features);
  EXPECT_EQ(mask.rows(), ds.features->nnz());
  EXPECT_EQ(mask.cols(), 1);
  EXPECT_GT(mask.value().Min(), 0.0f);
  EXPECT_LT(mask.value().Max(), 1.0f);
}

TEST(MaskGeneratorTest, StructureMaskShapeAndRange) {
  ses::util::Rng rng(2);
  auto ds = SmallDataset();
  g::KHopAdjacency khop(ds.graph, 2);
  c::MaskGenerator gen(16, ds.num_features(), &rng);
  auto h = ag::Variable::Constant(t::Tensor::Randn(ds.num_nodes(), 16, &rng));
  auto mask = gen.StructureMask(h, khop.PairEdges());
  EXPECT_EQ(mask.rows(), khop.num_pairs());
  EXPECT_GT(mask.value().Min(), 0.0f);
  EXPECT_LT(mask.value().Max(), 1.0f);
}

TEST(MaskGeneratorTest, GradientsFlowToAllParameters) {
  ses::util::Rng rng(3);
  g::Graph graph = g::Graph::FromUndirectedEdges(5, {{0, 1}, {1, 2}, {2, 3},
                                                     {3, 4}});
  g::KHopAdjacency khop(graph, 2);
  t::Tensor dense(5, 4);
  dense.At(0, 0) = dense.At(1, 1) = dense.At(2, 2) = dense.At(3, 3) =
      dense.At(4, 0) = 1.0f;
  auto sp = std::make_shared<t::SparseMatrix>(t::SparseMatrix::FromDense(dense));
  c::MaskGenerator gen(6, 4, &rng);
  auto h = ag::Variable::Parameter(t::Tensor::Randn(5, 6, &rng));
  std::vector<ag::Variable> params = gen.Parameters();
  params.push_back(h);
  auto result = ag::CheckGradients(
      [&] {
        auto fm = gen.FeatureMask(h, sp);
        auto sm = gen.StructureMask(h, khop.PairEdges());
        return ag::Add(ag::MeanAll(ag::Mul(fm, fm)),
                       ag::MeanAll(ag::Mul(sm, sm)));
      },
      params, /*epsilon=*/1e-2f, /*tolerance=*/5e-2f);
  EXPECT_TRUE(result.ok) << result.max_rel_error;
}

TEST(PairConstructionTest, PositivesComeFromKHopNegativesFromComplement) {
  ses::util::Rng rng(4);
  auto ds = SmallDataset();
  g::KHopAdjacency khop(ds.graph, 2);
  auto negs = g::SampleNegativeSets(khop, {}, &rng);
  t::Tensor mask = t::Tensor::Uniform(khop.num_pairs(), 1, 0.0f, 1.0f, &rng);
  auto pairs = c::ConstructPairs(khop, mask, negs, 0.8, &rng);
  ASSERT_GT(pairs.size(), 0);
  for (int64_t i = 0; i < pairs.size(); ++i) {
    EXPECT_TRUE(khop.Contains(pairs.anchor[static_cast<size_t>(i)],
                              pairs.positive[static_cast<size_t>(i)]));
    EXPECT_FALSE(khop.Contains(pairs.anchor[static_cast<size_t>(i)],
                               pairs.negative[static_cast<size_t>(i)]));
    EXPECT_NE(pairs.anchor[static_cast<size_t>(i)],
              pairs.negative[static_cast<size_t>(i)]);
  }
}

TEST(PairConstructionTest, PositivesAreHighestMaskNeighbors) {
  // Path graph: deterministic neighbor sets.
  g::Graph graph = g::Graph::FromUndirectedEdges(5, {{0, 1}, {1, 2}, {2, 3},
                                                     {3, 4}});
  g::KHopAdjacency khop(graph, 1);
  ses::util::Rng rng(5);
  auto negs = g::SampleNegativeSets(khop, {}, &rng);
  // Node 2 has neighbors {1, 3}; weight 3 higher.
  t::Tensor mask(khop.num_pairs(), 1);
  for (int64_t v = 0; v < 5; ++v) {
    auto nbrs = khop.Neighbors(v);
    for (size_t j = 0; j < nbrs.size(); ++j)
      mask[khop.PairOffset(v) + static_cast<int64_t>(j)] =
          nbrs[j] == 3 ? 0.9f : 0.1f;
  }
  // ratio 0.5 over 2 neighbors keeps exactly 1 per node.
  auto pairs = c::ConstructPairs(khop, mask, negs, 0.5, &rng);
  for (int64_t i = 0; i < pairs.size(); ++i) {
    if (pairs.anchor[static_cast<size_t>(i)] == 2) {
      EXPECT_EQ(pairs.positive[static_cast<size_t>(i)], 3);
    }
  }
}

TEST(PairConstructionTest, SampleRatioScalesPairCount) {
  ses::util::Rng rng(6);
  auto ds = SmallDataset();
  g::KHopAdjacency khop(ds.graph, 2);
  auto negs = g::SampleNegativeSets(khop, {}, &rng);
  t::Tensor mask = t::Tensor::Uniform(khop.num_pairs(), 1, 0.0f, 1.0f, &rng);
  auto low = c::ConstructPairs(khop, mask, negs, 0.2, &rng);
  auto high = c::ConstructPairs(khop, mask, negs, 0.9, &rng);
  EXPECT_LT(low.size(), high.size());
  EXPECT_LE(high.size(), khop.num_pairs());
}

// --- SES end-to-end -----------------------------------------------------------

TEST(SesModelTest, TrainsAndExplainsOnBaShapes) {
  auto ds = SmallDataset();
  c::SesOptions opt;
  opt.backbone = "GCN";
  c::SesModel model(opt);
  ses::models::TrainConfig cfg;
  cfg.epochs = 80;
  cfg.hidden = 32;
  cfg.dropout = 0.2f;
  cfg.seed = 1;
  model.Fit(ds, cfg);

  // Prediction clearly above chance (4 classes).
  const double acc =
      ses::models::Accuracy(model.Logits(ds), ds.labels, ds.test_idx);
  EXPECT_GT(acc, 0.45);

  // Explanations exist with the right shapes and ranges.
  EXPECT_EQ(model.feature_mask_nnz().rows(), ds.features->nnz());
  EXPECT_EQ(model.structure_mask_khop().rows(), model.khop().num_pairs());
  EXPECT_GE(model.structure_mask_khop().Min(), 0.0f);
  EXPECT_LE(model.structure_mask_khop().Max(), 1.0f);

  // Edge scores line up with the graph.
  EXPECT_EQ(model.EdgeScores(ds).size(), ds.graph.edges().size());

  // Timing fields populated.
  EXPECT_GT(model.explainable_training_seconds(), 0.0);
  EXPECT_GT(model.enhanced_learning_seconds(), 0.0);
  EXPECT_EQ(model.loss_history().size(), static_cast<size_t>(cfg.epochs));
  EXPECT_EQ(model.mask_snapshots().size(), 3u);
}

TEST(SesModelTest, ExplanationAucBeatsChanceAtBenchmarkScale) {
  // Mask quality is evaluated at the benchmark's scale (the small fixture
  // graphs put too few motif nodes in the train split for a stable mask).
  auto ds = ses::data::MakeBaShapes();
  c::SesOptions opt;
  c::SesModel model(opt);
  ses::models::TrainConfig cfg;
  cfg.epochs = 150;
  cfg.hidden = 64;
  cfg.dropout = 0.2f;
  cfg.seed = 1;
  model.Fit(ds, cfg);
  EXPECT_GT(ses::metrics::ExplanationAuc(ds, model.EdgeScores(ds)), 0.6);
}

TEST(SesModelTest, GatBackboneRuns) {
  auto ds = SmallDataset();
  c::SesOptions opt;
  opt.backbone = "GAT";
  c::SesModel model(opt);
  ses::models::TrainConfig cfg;
  cfg.epochs = 50;
  cfg.hidden = 32;
  cfg.seed = 2;
  model.Fit(ds, cfg);
  EXPECT_GT(ses::models::Accuracy(model.Logits(ds), ds.labels, ds.test_idx),
            0.35);
  EXPECT_EQ(model.name(), "SES (GAT)");
}

TEST(SesModelTest, AblationSwitchesRun) {
  auto ds = SmallDataset();
  ses::models::TrainConfig cfg;
  cfg.epochs = 15;
  cfg.hidden = 16;
  cfg.seed = 3;
  for (int variant = 0; variant < 4; ++variant) {
    c::SesOptions opt;
    opt.use_feature_mask = variant != 0;
    opt.use_structure_mask = variant != 1;
    opt.use_xent_phase2 = variant != 2;
    opt.use_triplet = variant != 3;
    c::SesModel model(opt);
    model.Fit(ds, cfg);
    EXPECT_EQ(model.Logits(ds).rows(), ds.num_nodes());
  }
}

TEST(SesModelTest, MaskXentAblationChangesMasks) {
  auto ds = SmallDataset();
  ses::models::TrainConfig cfg;
  cfg.epochs = 25;
  cfg.hidden = 16;
  cfg.seed = 4;
  c::SesOptions with;
  c::SesModel a(with);
  a.Fit(ds, cfg);
  c::SesOptions without;
  without.use_mask_xent = false;
  c::SesModel b(without);
  b.Fit(ds, cfg);
  EXPECT_GT(a.structure_mask_khop().MaxAbsDiff(b.structure_mask_khop()),
            1e-3f);
}

TEST(SesModelTest, DeterministicGivenSeed) {
  const ses::test::ScopedOmpTeam team(4);
  auto ds = SmallDataset();
  ses::models::TrainConfig cfg;
  cfg.epochs = 10;
  cfg.hidden = 16;
  cfg.seed = 5;
  c::SesOptions opt;
  c::SesModel a(opt), b(opt);
  a.Fit(ds, cfg);
  b.Fit(ds, cfg);
  EXPECT_FLOAT_EQ(a.Logits(ds).MaxAbsDiff(b.Logits(ds)), 0.0f);
}

TEST(SesModelTest, FitIsBitwiseIdenticalAtOneAndFourThreads) {
#ifndef _OPENMP
  GTEST_SKIP() << "built without OpenMP";
#else
  // Large enough that every kernel of the forward and the backward takes
  // its OpenMP path; every output row and edge keeps one summation order
  // whatever the team size.
  ses::data::ScaleGraphOptions graph;
  graph.num_nodes = 2000;
  graph.seed = 3;
  const ses::data::Dataset ds = ses::data::MakeScaleGraph(graph);
  ses::models::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.hidden = 32;
  cfg.seed = 3;
  c::SesOptions opt;
  opt.epl_epochs = 1;
  t::Tensor logits[2];
  for (const int n : {1, 4}) {
    const ses::test::ScopedOmpTeam team(n);
    c::SesModel model(opt);
    model.Fit(ds, cfg);
    logits[n == 4] = model.Logits(ds);
  }
  ASSERT_TRUE(logits[0].SameShape(logits[1]));
  EXPECT_EQ(std::memcmp(logits[0].data(), logits[1].data(),
                        logits[0].size() * sizeof(float)),
            0);
#endif
}

TEST(SesModelTest, TracedFitRecordsKHopBuildInsideSetupSpan) {
  auto ds = SmallDataset();
  ses::models::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.hidden = 16;
  c::SesOptions opt;
  opt.epl_epochs = 1;
  c::SesModel model(opt);
  ses::obs::EnableTracing(true);
  ses::obs::ResetTracing();
  model.Fit(ds, cfg);
  ses::obs::EnableTracing(false);

  std::vector<ses::obs::TraceEvent> setup, khop;
  for (const auto& ev : ses::obs::SnapshotEvents()) {
    if (std::string(ev.label) == "ses/setup") setup.push_back(ev);
    if (std::string(ev.label) == "graph/khop") khop.push_back(ev);
  }
  ses::obs::ResetTracing();
  ASSERT_EQ(setup.size(), 1u);
  ASSERT_EQ(khop.size(), 1u);
  EXPECT_EQ(khop[0].tid, setup[0].tid);
  EXPECT_EQ(khop[0].depth, setup[0].depth + 1);
  EXPECT_LE(setup[0].start_ns, khop[0].start_ns);
  EXPECT_GE(setup[0].start_ns + setup[0].dur_ns,
            khop[0].start_ns + khop[0].dur_ns);
}

/// Collects every epoch record a Fit emits through the telemetry callback,
/// with the ModelHealthMonitor on so records carry health fields.
std::vector<ses::obs::EpochRecord> EpochRecordsOf(
    ses::models::NodeClassifier* model, const ses::data::Dataset& ds,
    const ses::models::TrainConfig& cfg) {
  std::vector<ses::obs::EpochRecord> records;
  ses::obs::Telemetry::Get().SetCallback(
      [&records](const ses::obs::EpochRecord& r) { records.push_back(r); });
  ses::obs::ModelHealthMonitor::Get().SetEnabled(true);
  model->Fit(ds, cfg);
  ses::obs::ModelHealthMonitor::Get().ResetForTest();
  ses::obs::Telemetry::Get().Close();
  return records;
}

TEST(EpochReportTest, SesReportsPhase1ThenPhase2AndBackboneReportsFit) {
  auto ds = SmallDataset();
  ses::models::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.hidden = 16;
  cfg.seed = 2;
  c::SesOptions opt;
  opt.backbone = "GAT";
  opt.epl_epochs = 3;
  c::SesModel ses_model(opt);
  const auto records = EpochRecordsOf(&ses_model, ds, cfg);
  ASSERT_EQ(records.size(),
            static_cast<size_t>(cfg.epochs + opt.epl_epochs));
  for (size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    const bool phase1 = i < static_cast<size_t>(cfg.epochs);
    EXPECT_EQ(r.phase, phase1 ? "phase1" : "phase2") << i;
    EXPECT_EQ(r.epoch, phase1 ? static_cast<int64_t>(i)
                              : static_cast<int64_t>(i) - cfg.epochs)
        << i;
    EXPECT_TRUE(std::isfinite(r.loss)) << i;
    EXPECT_TRUE(std::isfinite(r.grad_norm)) << i;
    EXPECT_GE(r.grad_norm, 0.0) << i;
    // The GAT backbone feeds its attention to the health monitor.
    EXPECT_GE(r.attn_entropy, 0.0) << i;
    EXPECT_LE(r.attn_entropy, 1.0) << i;
    EXPECT_FALSE(r.layer_grad_norms.empty()) << i;
  }

  ses::models::BackboneModel backbone("GCN");
  const auto fit_records = EpochRecordsOf(&backbone, ds, cfg);
  ASSERT_EQ(fit_records.size(), static_cast<size_t>(cfg.epochs));
  for (size_t i = 0; i < fit_records.size(); ++i) {
    EXPECT_EQ(fit_records[i].phase, "fit");
    EXPECT_EQ(fit_records[i].epoch, static_cast<int64_t>(i));
    EXPECT_TRUE(std::isfinite(fit_records[i].loss)) << i;
    EXPECT_TRUE(std::isfinite(fit_records[i].grad_norm)) << i;
  }
}

TEST(SesModelTest, EdgeScoresAlignWithGraph) {
  auto ds = SmallDataset();
  c::SesOptions opt;
  c::SesModel model(opt);
  ses::models::TrainConfig cfg;
  cfg.epochs = 10;
  cfg.hidden = 16;
  cfg.seed = 6;
  model.Fit(ds, cfg);
  auto scores = model.EdgeScores(ds);
  EXPECT_EQ(scores.size(), ds.graph.edges().size());
  for (float s : scores) {
    EXPECT_GE(s, 0.0f);
    EXPECT_LE(s, 1.0f);
  }
}

}  // namespace
