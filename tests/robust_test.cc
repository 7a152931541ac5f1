#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "core/ses_model.h"
#include "data/synthetic.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "robust/checkpoint.h"
#include "robust/fault.h"
#include "robust/health.h"
#include "robust/serialize.h"
#include "util/crc32.h"
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

t::Tensor MakeTensor(int64_t rows, int64_t cols, float start) {
  t::Tensor out(rows, cols);
  for (int64_t i = 0; i < out.size(); ++i)
    out[i] = start + 0.25f * static_cast<float>(i);
  return out;
}

r::TrainingCheckpoint MakeCheckpoint() {
  r::TrainingCheckpoint c;
  c.model = "SES (GCN)";
  c.phase = "phase1";
  c.next_epoch = 17;
  c.params = {MakeTensor(2, 3, 1.0f), MakeTensor(4, 1, -2.0f)};
  c.optim.step_count = 17;
  c.optim.m = {MakeTensor(2, 3, 0.1f), MakeTensor(4, 1, 0.2f)};
  c.optim.v = {MakeTensor(2, 3, 0.3f), MakeTensor(4, 1, 0.4f)};
  ses::util::Rng rng(99);
  rng.Normal();  // populate the Box-Muller cache
  c.rng = rng.State();
  c.best_val = 0.8125;
  c.lr = 0.003f;
  c.tensors["mask"] = MakeTensor(3, 2, 5.0f);
  c.tensor_lists["best"] = {MakeTensor(1, 4, 9.0f)};
  c.int_lists["pairs"] = {3, 1, 4, 1, 5};
  c.double_lists["history"] = {0.0, 1.5, -2.25};
  c.scalars["alpha"] = 0.5;
  return c;
}

void ExpectBitwiseEqual(const r::TrainingCheckpoint& a,
                        const r::TrainingCheckpoint& b) {
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.next_epoch, b.next_epoch);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i)
    EXPECT_EQ(a.params[i].MaxAbsDiff(b.params[i]), 0.0f);
  EXPECT_EQ(a.optim.step_count, b.optim.step_count);
  ASSERT_EQ(a.optim.m.size(), b.optim.m.size());
  for (size_t i = 0; i < a.optim.m.size(); ++i) {
    EXPECT_EQ(a.optim.m[i].MaxAbsDiff(b.optim.m[i]), 0.0f);
    EXPECT_EQ(a.optim.v[i].MaxAbsDiff(b.optim.v[i]), 0.0f);
  }
  EXPECT_TRUE(a.rng == b.rng);
  EXPECT_EQ(a.best_val, b.best_val);
  EXPECT_EQ(a.lr, b.lr);
  ASSERT_EQ(a.tensors.size(), b.tensors.size());
  for (const auto& [name, value] : a.tensors)
    EXPECT_EQ(value.MaxAbsDiff(b.tensors.at(name)), 0.0f);
  ASSERT_EQ(a.tensor_lists.size(), b.tensor_lists.size());
  for (const auto& [name, list] : a.tensor_lists) {
    const auto& other = b.tensor_lists.at(name);
    ASSERT_EQ(list.size(), other.size());
    for (size_t i = 0; i < list.size(); ++i)
      EXPECT_EQ(list[i].MaxAbsDiff(other[i]), 0.0f);
  }
  EXPECT_EQ(a.int_lists, b.int_lists);
  EXPECT_EQ(a.double_lists, b.double_lists);
  EXPECT_EQ(a.scalars, b.scalars);
}

// --------------------------------------------------------------------- CRC32

TEST(Crc32Test, KnownAnswer) {
  // The CRC-32/IEEE check value.
  EXPECT_EQ(ses::util::Crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(64, 'a');
  const uint32_t clean = ses::util::Crc32(data);
  data[20] = static_cast<char>(data[20] ^ 0x01);
  EXPECT_NE(ses::util::Crc32(data), clean);
}

// ---------------------------------------------------------------- serializer

TEST(SerializeTest, ScalarAndCompositeRoundtrip) {
  r::Serializer s;
  s.WriteU32(7);
  s.WriteI64(-123456789012345);
  s.WriteF32(1.5f);
  s.WriteF64(-2.25);
  s.WriteBool(true);
  s.WriteString("hello checkpoint");
  s.WriteTensor(MakeTensor(2, 5, 3.0f));
  s.WriteI64Vec({1, -2, 3});
  s.WriteF64Vec({0.5, -0.5});

  r::Deserializer d(s.buffer());
  EXPECT_EQ(d.ReadU32(), 7u);
  EXPECT_EQ(d.ReadI64(), -123456789012345);
  EXPECT_EQ(d.ReadF32(), 1.5f);
  EXPECT_EQ(d.ReadF64(), -2.25);
  EXPECT_TRUE(d.ReadBool());
  EXPECT_EQ(d.ReadString(), "hello checkpoint");
  EXPECT_EQ(d.ReadTensor().MaxAbsDiff(MakeTensor(2, 5, 3.0f)), 0.0f);
  EXPECT_EQ(d.ReadI64Vec(), (std::vector<int64_t>{1, -2, 3}));
  EXPECT_EQ(d.ReadF64Vec(), (std::vector<double>{0.5, -0.5}));
  EXPECT_TRUE(d.AtEnd());
}

TEST(SerializeTest, ThrowsOnTruncatedPayload) {
  r::Serializer s;
  s.WriteTensor(MakeTensor(4, 4, 0.0f));
  const std::string full = s.buffer();
  r::Deserializer d(std::string_view(full).substr(0, full.size() / 2));
  EXPECT_THROW(d.ReadTensor(), std::runtime_error);
}

TEST(SerializeTest, ContainerRoundtripAndRejection) {
  const std::string dir = ScratchDir("container");
  const std::string path = dir + "/file.ses";
  r::WriteFileAtomic(path, "some payload bytes");
  EXPECT_EQ(r::ReadValidatedFile(path), "some payload bytes");
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // Flipping one payload byte must trip the CRC.
  r::CorruptFile(path, "flip");
  EXPECT_THROW(r::ReadValidatedFile(path), std::runtime_error);

  // Truncation must trip the size check.
  r::WriteFileAtomic(path, "some payload bytes");
  r::CorruptFile(path, "truncate");
  EXPECT_THROW(r::ReadValidatedFile(path), std::runtime_error);

  // A non-checkpoint file must be rejected on magic.
  std::ofstream(path, std::ios::binary) << "definitely not a checkpoint file";
  EXPECT_THROW(r::ReadValidatedFile(path), std::runtime_error);

  EXPECT_THROW(r::ReadValidatedFile(dir + "/missing.ses"), std::runtime_error);
}

// ---------------------------------------------------------------- checkpoint

TEST(CheckpointTest, RoundtripIsBitwise) {
  const r::TrainingCheckpoint original = MakeCheckpoint();
  const r::TrainingCheckpoint loaded =
      r::TrainingCheckpoint::Deserialize(original.Serialize());
  ExpectBitwiseEqual(original, loaded);
}

TEST(CheckpointTest, DeserializeRejectsTrailingBytes) {
  std::string payload = MakeCheckpoint().Serialize();
  payload += "extra";
  EXPECT_THROW(r::TrainingCheckpoint::Deserialize(payload),
               std::runtime_error);
}

TEST(CheckpointManagerTest, RotationKeepsNewest) {
  const std::string dir = ScratchDir("rotation");
  r::CheckpointManager mgr(dir, /*keep_last=*/3);
  r::TrainingCheckpoint c = MakeCheckpoint();
  for (int64_t e = 1; e <= 5; ++e) {
    c.next_epoch = e;
    mgr.Write(c);
  }
  int64_t files = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir))
    ++files;
  EXPECT_EQ(files, 3);
  auto latest = mgr.LoadLatest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_epoch, 5);
}

TEST(CheckpointManagerTest, SequenceSurvivesReopen) {
  const std::string dir = ScratchDir("reopen");
  r::TrainingCheckpoint c = MakeCheckpoint();
  {
    r::CheckpointManager mgr(dir, 3);
    c.next_epoch = 1;
    mgr.Write(c);
  }
  // A new manager (fresh process after a crash) must continue the sequence,
  // not overwrite the existing rotation.
  r::CheckpointManager mgr(dir, 3);
  c.next_epoch = 2;
  mgr.Write(c);
  auto latest = mgr.LoadLatest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_epoch, 2);
}

TEST(CheckpointManagerTest, CorruptLatestFallsBackToPreviousRotation) {
  const std::string dir = ScratchDir("fallback");
  r::CheckpointManager mgr(dir, 3);
  r::TrainingCheckpoint c = MakeCheckpoint();
  c.next_epoch = 1;
  mgr.Write(c);
  c.next_epoch = 2;
  const std::string newest = mgr.Write(c);
  EXPECT_EQ(mgr.LatestPath(), newest);

  const int64_t corrupt_before = CounterValue("ses.ckpt.resume_corrupt");
  r::CorruptFile(newest, "flip");
  auto loaded = mgr.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->next_epoch, 1);  // previous rotation
  EXPECT_GE(CounterValue("ses.ckpt.resume_corrupt"), corrupt_before + 1);

  // Both rotations damaged => no resume.
  for (const auto& entry : fs::directory_iterator(dir))
    r::CorruptFile(entry.path().string(), "truncate");
  EXPECT_FALSE(mgr.LoadLatest().has_value());
}

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
