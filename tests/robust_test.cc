#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "core/ses_model.h"
#include "data/synthetic.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "robust/fault.h"
#include "robust/health.h"
#include "omp_team.h"

namespace ag = ses::autograd;
namespace r = ses::robust;
namespace t = ses::tensor;
namespace fs = std::filesystem;

namespace {

/// Fresh scratch directory under test_artifacts for one test.
std::string ScratchDir(const std::string& name) {
  const std::string dir = "test_artifacts/robust/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

int64_t CounterValue(const std::string& name) {
  return ses::obs::MetricsRegistry::Get().GetCounter(name).Value();
}

/// RAII environment-variable override for SES_FAULT_SPEC.
struct ScopedFaultSpec {
  explicit ScopedFaultSpec(const std::string& spec) {
    ::setenv("SES_FAULT_SPEC", spec.c_str(), 1);
  }
  ~ScopedFaultSpec() { ::unsetenv("SES_FAULT_SPEC"); }
};

// -------------------------------------------------------------------- health

TEST(HealthMonitorTest, ClassifiesSteps) {
  r::HealthMonitor health(/*max_bad_steps=*/3);
  const int64_t skips_before = CounterValue("ses.train.nan_skips");
  EXPECT_EQ(health.Observe(1.0, 2.0), r::HealthMonitor::Action::kProceed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(health.Observe(nan, 2.0), r::HealthMonitor::Action::kSkip);
  EXPECT_EQ(health.Observe(1.0, nan), r::HealthMonitor::Action::kSkip);
  // A finite step in between resets the streak.
  EXPECT_EQ(health.Observe(1.0, 2.0), r::HealthMonitor::Action::kProceed);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(health.Observe(inf, 2.0), r::HealthMonitor::Action::kSkip);
  EXPECT_EQ(health.Observe(nan, 2.0), r::HealthMonitor::Action::kSkip);
  EXPECT_EQ(health.Observe(nan, 2.0), r::HealthMonitor::Action::kRollback);
  EXPECT_EQ(CounterValue("ses.train.nan_skips"), skips_before + 5);

  const int64_t rollbacks_before = CounterValue("ses.train.rollbacks");
  health.NoteRollback();
  EXPECT_EQ(health.consecutive_bad(), 0);
  EXPECT_EQ(CounterValue("ses.train.rollbacks"), rollbacks_before + 1);
}

// --------------------------------------------------------------- fault plans

TEST(FaultPlanTest, ParsesSpec) {
  r::FaultPlan plan = r::FaultPlan::Parse(
      "nan_grad:phase=phase1,step=7;"
      "crash:phase=phase2,epoch=2,mode=throw;"
      "corrupt_ckpt:epoch=4,mode=truncate");
  ASSERT_EQ(plan.faults().size(), 3u);
  EXPECT_EQ(plan.faults()[0].kind, "nan_grad");
  EXPECT_EQ(plan.faults()[0].step, 7);
  EXPECT_EQ(plan.faults()[1].mode, "throw");
  EXPECT_EQ(plan.faults()[2].phase, "");  // matches any phase
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(r::FaultPlan::Parse("explode:step=1"), std::runtime_error);
  EXPECT_THROW(r::FaultPlan::Parse("nan_grad:bogus=1"), std::runtime_error);
  EXPECT_THROW(r::FaultPlan::Parse("nan_grad"), std::runtime_error);
  EXPECT_THROW(r::FaultPlan::Parse("crash:epoch=x"), std::runtime_error);
  EXPECT_THROW(r::FaultPlan::Parse("crash"), std::runtime_error);
  EXPECT_THROW(r::FaultPlan::Parse("crash:epoch=1,mode=soft"),
               std::runtime_error);
  EXPECT_THROW(r::FaultPlan::Parse("corrupt_ckpt:epoch=1,mode=shred"),
               std::runtime_error);
  // Negative counts and durations are malformed, not "unset" or "0 ms".
  EXPECT_THROW(r::FaultPlan::Parse("worker_stall:step=2,ms=-5"),
               std::runtime_error);
  EXPECT_THROW(r::FaultPlan::Parse("serve_delay:us=-100"), std::runtime_error);
  EXPECT_THROW(r::FaultPlan::Parse("nan_grad:step=-1"), std::runtime_error);
  EXPECT_THROW(r::FaultPlan::Parse("crash:epoch=-2"), std::runtime_error);
  // Zero stays valid: step 0 is the first batch and ms=0 a zero-length
  // stall; only an omitted ms= takes the 10 ms default.
  r::FaultPlan zero =
      r::FaultPlan::Parse("worker_stall:step=0,ms=0;slow_forward:step=1");
  int64_t ms = -1;
  EXPECT_TRUE(zero.TakeWorkerStall(0, &ms));
  EXPECT_EQ(ms, 0);
  EXPECT_TRUE(zero.TakeSlowForward(1, &ms));
  EXPECT_EQ(ms, 10);
}

TEST(FaultPlanTest, FaultsFireExactlyOnce) {
  r::FaultPlan plan = r::FaultPlan::Parse("nan_loss:phase=phase1,step=3");
  EXPECT_FALSE(plan.TakeNanLoss("phase1", 2));
  EXPECT_FALSE(plan.TakeNanLoss("phase2", 3));
  EXPECT_TRUE(plan.TakeNanLoss("phase1", 3));
  EXPECT_FALSE(plan.TakeNanLoss("phase1", 3));  // already fired
  EXPECT_FALSE(plan.TakeNanGrad("phase1", 3));  // different kind
}

TEST(FaultPlanTest, ThrowModeCrashRaisesSimulatedCrash) {
  r::FaultPlan plan =
      r::FaultPlan::Parse("crash:phase=phase1,epoch=5,mode=throw");
  plan.MaybeCrash("phase1", 4);  // no-op
  EXPECT_THROW(plan.MaybeCrash("phase1", 5), r::SimulatedCrash);
  plan.MaybeCrash("phase1", 5);  // fired, now a no-op
}

// ----------------------------------------------------------- gradient guards

TEST(OptimizerTest, GlobalNormClipping) {
  // One parameter with gradient (3, 4): norm 5. Clip at 2.5 => SGD applies
  // half the gradient.
  auto p = ag::Variable::Parameter(t::Tensor::Zeros(1, 2));
  p.mutable_grad()[0] = 3.0f;
  p.mutable_grad()[1] = 4.0f;
  ses::nn::Sgd sgd({p}, /*lr=*/1.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(sgd.GradNorm()), 5.0f);
  sgd.set_max_grad_norm(2.5f);
  sgd.Step();
  EXPECT_FLOAT_EQ(p.value()[0], -1.5f);
  EXPECT_FLOAT_EQ(p.value()[1], -2.0f);
}

TEST(OptimizerTest, ClippingSkippedWhenNormNotFinite) {
  auto p = ag::Variable::Parameter(t::Tensor::Zeros(1, 2));
  p.mutable_grad()[0] = std::numeric_limits<float>::quiet_NaN();
  p.mutable_grad()[1] = 4.0f;
  ses::nn::Sgd sgd({p}, /*lr=*/1.0f);
  sgd.set_max_grad_norm(1.0f);
  EXPECT_FALSE(std::isfinite(sgd.GradNorm()));
  sgd.Step();  // must not scale by NaN: the finite lane stays a plain update
  EXPECT_FLOAT_EQ(p.value()[1], -4.0f);
}

TEST(OptimizerTest, AdamStateRoundtrip) {
  ses::util::Rng rng(5);
  auto make_params = [&]() {
    return std::vector<ag::Variable>{
        ag::Variable::Parameter(t::Tensor::Randn(2, 2, &rng))};
  };
  auto a_params = make_params();
  ses::nn::Adam a(a_params, 0.01f);
  for (int i = 0; i < 3; ++i) {
    a_params[0].mutable_grad().Fill(0.5f);
    a.Step();
  }
  // Transplant values + optimizer state into a fresh setup; the next step
  // must match bitwise.
  auto b_params = make_params();
  b_params[0].mutable_value() = a_params[0].value();
  ses::nn::Adam b(b_params, 0.01f);
  b.RestoreState(a.step_count(), a.moment1(), a.moment2());
  a_params[0].mutable_grad().Fill(0.25f);
  b_params[0].mutable_grad().Fill(0.25f);
  a.Step();
  b.Step();
  EXPECT_EQ(a_params[0].value().MaxAbsDiff(b_params[0].value()), 0.0f);
}

// ------------------------------------------------- end-to-end fault tolerance

ses::data::Dataset TinyDataset() {
  ses::data::SyntheticOptions opt;
  opt.scale = 0.35;
  return ses::data::MakeBaShapes(opt);
}

ses::models::TrainConfig TinyConfig() {
  ses::models::TrainConfig config;
  config.epochs = 8;
  config.hidden = 16;
  config.seed = 3;
  config.checkpoint_every = 3;
  return config;
}

ses::core::SesOptions TinyOptions() {
  ses::core::SesOptions options;
  options.backbone = "GCN";
  options.epl_epochs = 5;
  return options;
}

t::Tensor UninterruptedLogits(const ses::data::Dataset& ds) {
  ses::core::SesModel model(TinyOptions());
  model.Fit(ds, TinyConfig());  // no checkpoint_dir: the reference run
  return model.Logits(ds);
}

TEST(ResumeTest, KillMidPhase1ResumesBitwiseIdentically) {
  const ses::test::ScopedOmpTeam team(4);
  auto ds = TinyDataset();
  const t::Tensor reference = UninterruptedLogits(ds);

  ses::models::TrainConfig config = TinyConfig();
  config.checkpoint_dir = ScratchDir("resume_phase1");
  {
    ScopedFaultSpec spec("crash:phase=phase1,epoch=5,mode=throw");
    ses::core::SesModel victim(TinyOptions());
    EXPECT_THROW(victim.Fit(ds, config), r::SimulatedCrash);
  }
  const int64_t ok_before = CounterValue("ses.ckpt.resume_ok");
  ses::core::SesModel resumed(TinyOptions());
  resumed.Fit(ds, config);
  EXPECT_GE(CounterValue("ses.ckpt.resume_ok"), ok_before + 1);
  EXPECT_EQ(resumed.Logits(ds).MaxAbsDiff(reference), 0.0f);
  EXPECT_EQ(resumed.loss_history().size(), 8u);
}

TEST(ResumeTest, KillMidPhase2ResumesBitwiseIdentically) {
  const ses::test::ScopedOmpTeam team(4);
  auto ds = TinyDataset();
  const t::Tensor reference = UninterruptedLogits(ds);

  ses::models::TrainConfig config = TinyConfig();
  config.checkpoint_dir = ScratchDir("resume_phase2");
  {
    ScopedFaultSpec spec("crash:phase=phase2,epoch=2,mode=throw");
    ses::core::SesModel victim(TinyOptions());
    EXPECT_THROW(victim.Fit(ds, config), r::SimulatedCrash);
  }
  ses::core::SesModel resumed(TinyOptions());
  resumed.Fit(ds, config);
  EXPECT_EQ(resumed.Logits(ds).MaxAbsDiff(reference), 0.0f);
}

TEST(ResumeTest, CheckpointingItselfDoesNotPerturbTraining) {
  const ses::test::ScopedOmpTeam team(4);
  // A run that writes checkpoints but never crashes must also match the
  // checkpoint-free reference bitwise.
  auto ds = TinyDataset();
  const t::Tensor reference = UninterruptedLogits(ds);
  ses::models::TrainConfig config = TinyConfig();
  config.checkpoint_dir = ScratchDir("ckpt_noop");
  ses::core::SesModel model(TinyOptions());
  model.Fit(ds, config);
  EXPECT_EQ(model.Logits(ds).MaxAbsDiff(reference), 0.0f);
}

TEST(FaultToleranceTest, NanLossInjectionSkipsStepAndCompletes) {
  auto ds = TinyDataset();
  const int64_t skips_before = CounterValue("ses.train.nan_skips");
  ScopedFaultSpec spec("nan_loss:phase=phase1,step=2");
  ses::core::SesModel model(TinyOptions());
  model.Fit(ds, TinyConfig());
  EXPECT_GE(CounterValue("ses.train.nan_skips"), skips_before + 1);
  // Training survived: predictions are finite.
  const t::Tensor logits = model.Logits(ds);
  for (int64_t i = 0; i < logits.size(); ++i)
    EXPECT_TRUE(std::isfinite(logits[i])) << "logit " << i;
}

TEST(FaultToleranceTest, RepeatedNansTriggerRollback) {
  auto ds = TinyDataset();
  ses::models::TrainConfig config = TinyConfig();
  config.checkpoint_dir = ScratchDir("rollback");
  config.max_bad_steps = 3;
  const int64_t rollbacks_before = CounterValue("ses.train.rollbacks");
  ScopedFaultSpec spec(
      "nan_loss:phase=phase1,step=4;"
      "nan_loss:phase=phase1,step=5;"
      "nan_loss:phase=phase1,step=6");
  ses::core::SesModel model(TinyOptions());
  model.Fit(ds, config);
  EXPECT_GE(CounterValue("ses.train.rollbacks"), rollbacks_before + 1);
  const t::Tensor logits = model.Logits(ds);
  for (int64_t i = 0; i < logits.size(); ++i)
    EXPECT_TRUE(std::isfinite(logits[i])) << "logit " << i;
}

TEST(FaultToleranceTest, CorruptedCheckpointFallsBackOnResume) {
  auto ds = TinyDataset();
  const t::Tensor reference = UninterruptedLogits(ds);

  ses::models::TrainConfig config = TinyConfig();
  config.checkpoint_dir = ScratchDir("corrupt_resume");
  {
    // Write checkpoints after epochs 2 and 5 (next_epoch 3 and 6), corrupt
    // the newer one, then crash at epoch 7.
    ScopedFaultSpec spec(
        "corrupt_ckpt:phase=phase1,epoch=6,mode=flip;"
        "crash:phase=phase1,epoch=7,mode=throw");
    ses::core::SesModel victim(TinyOptions());
    EXPECT_THROW(victim.Fit(ds, config), r::SimulatedCrash);
  }
  // Resume must reject the damaged rotation, fall back to the older one, and
  // still reproduce the uninterrupted run bitwise.
  const int64_t corrupt_before = CounterValue("ses.ckpt.resume_corrupt");
  ses::core::SesModel resumed(TinyOptions());
  resumed.Fit(ds, config);
  EXPECT_GE(CounterValue("ses.ckpt.resume_corrupt"), corrupt_before + 1);
  EXPECT_EQ(resumed.Logits(ds).MaxAbsDiff(reference), 0.0f);
}

TEST(FaultToleranceTest, Phase2NanLossIsSkippedAndCounted) {
  auto ds = TinyDataset();
  const int64_t skips_before = CounterValue("ses.train.nan_skips");
  ScopedFaultSpec spec("nan_loss:phase=phase2,step=2");
  ses::core::SesModel model(TinyOptions());
  model.Fit(ds, TinyConfig());
  EXPECT_EQ(CounterValue("ses.train.nan_skips"), skips_before + 1);
  const t::Tensor logits = model.Logits(ds);
  for (int64_t i = 0; i < logits.size(); ++i)
    EXPECT_TRUE(std::isfinite(logits[i])) << "logit " << i;
}

TEST(FaultToleranceTest, RepeatedPhase2NansRollBackWithinPhase2) {
  auto ds = TinyDataset();
  ses::models::TrainConfig config = TinyConfig();
  config.checkpoint_dir = ScratchDir("rollback_phase2");
  config.max_bad_steps = 3;
  const int64_t rollbacks_before = CounterValue("ses.train.rollbacks");
  ScopedFaultSpec spec(
      "nan_loss:phase=phase2,step=1;"
      "nan_loss:phase=phase2,step=2;"
      "nan_loss:phase=phase2,step=3");
  ses::core::SesModel model(TinyOptions());
  model.Fit(ds, config);
  EXPECT_EQ(CounterValue("ses.train.rollbacks"), rollbacks_before + 1);
  // The rollback target is a phase-2 checkpoint: phase 1 ran exactly once.
  EXPECT_EQ(model.loss_history().size(),
            static_cast<size_t>(config.epochs));
  const t::Tensor logits = model.Logits(ds);
  for (int64_t i = 0; i < logits.size(); ++i)
    EXPECT_TRUE(std::isfinite(logits[i])) << "logit " << i;
}

TEST(FaultToleranceTest, CorruptedPhase2CheckpointFallsBackOnResume) {
  auto ds = TinyDataset();
  const t::Tensor reference = UninterruptedLogits(ds);

  ses::models::TrainConfig config = TinyConfig();
  config.checkpoint_dir = ScratchDir("corrupt_resume_phase2");
  {
    // Phase 2 checkpoints at its boundary (next_epoch 0) and after epoch 2
    // (next_epoch 3); damage the newer one, then crash at epoch 4.
    ScopedFaultSpec spec(
        "corrupt_ckpt:phase=phase2,epoch=3,mode=flip;"
        "crash:phase=phase2,epoch=4,mode=throw");
    ses::core::SesModel victim(TinyOptions());
    EXPECT_THROW(victim.Fit(ds, config), r::SimulatedCrash);
  }
  const int64_t corrupt_before = CounterValue("ses.ckpt.resume_corrupt");
  ses::core::SesModel resumed(TinyOptions());
  resumed.Fit(ds, config);
  EXPECT_GE(CounterValue("ses.ckpt.resume_corrupt"), corrupt_before + 1);
  EXPECT_EQ(resumed.Logits(ds).MaxAbsDiff(reference), 0.0f);
  EXPECT_EQ(resumed.loss_history().size(),
            static_cast<size_t>(config.epochs));
}

}  // namespace
