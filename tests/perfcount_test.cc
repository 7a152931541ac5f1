// Tests for the kernel observatory: KernelScope work accounting (exact
// declared FLOP counts for the annotated tensor and autograd kernels),
// inclusive / exclusive attribution across nested and cross-thread scopes, the
// clock-only perf fallback (SES_PERF_DISABLE), roofline placement math, and
// kernel spans in the Chrome trace.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/sparse_ops.h"
#include "kernels/dispatch.h"
#include "obs/obs.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace {

using namespace ses;
namespace t = ses::tensor;

/// Variant labels now carry the dispatched tier suffix ("dense_avx2", ...);
/// derive the expected names from the active dispatch table so the tests
/// pass whatever tier the host CPU selects.
std::string MatMulVariant() {
  return kernels::GetDispatch().matmul_variant;
}
std::string CsrSpmmVariant() { return kernels::GetDispatch().spmm_variant; }

/// Finds one (kernel, variant) aggregate; calls==0 stats count as absent.
const obs::KernelStats* Find(const std::vector<obs::KernelStats>& stats,
                             const std::string& kernel,
                             const std::string& variant) {
  for (const obs::KernelStats& s : stats)
    if (s.kernel == kernel && s.variant == variant && s.calls > 0) return &s;
  return nullptr;
}

class KernelScopeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ResetKernelStats();
    obs::EnableKernelProfiling(true);
  }
  void TearDown() override {
    obs::EnableKernelProfiling(false);
    obs::ResetKernelStats();
    obs::ResetTracing();
    obs::EnableTracing(false);
  }
};

TEST_F(KernelScopeTest, DisabledScopeRecordsNothing) {
  obs::EnableKernelProfiling(false);
  obs::ResetKernelStats();
  { obs::KernelScope scope("test_kernel", "off", 100.0, 200.0); }
  EXPECT_EQ(Find(obs::SnapshotKernelStats(), "test_kernel", "off"), nullptr);
}

TEST_F(KernelScopeTest, MatMulDeclaresExactFlops) {
  // 2x3 * 3x4: 2*m*k*n = 48 FLOPs, bytes = 4*(6 + 12 + 8) = 104.
  t::Tensor a(2, 3), b(3, 4);
  for (int64_t i = 0; i < a.size(); ++i) a[i] = 1.0f;
  for (int64_t i = 0; i < b.size(); ++i) b[i] = 1.0f;
  (void)t::MatMul(a, b);
  const auto stats = obs::SnapshotKernelStats();
  const obs::KernelStats* s = Find(stats, "matmul", MatMulVariant());
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->calls, 1u);
  EXPECT_DOUBLE_EQ(s->flops, 48.0);
  EXPECT_DOUBLE_EQ(s->bytes, 104.0);
  EXPECT_GT(s->inclusive_ns, 0.0);
  EXPECT_DOUBLE_EQ(s->Intensity(), 48.0 / 104.0);
}

TEST_F(KernelScopeTest, SpmmDeclaresTwoFlopsPerNnzPerFeature) {
  // Dense 3x3 with 4 nonzeros, features = 5: flops = 2 * 4 * 5 = 40.
  t::Tensor dense_src(3, 3);
  dense_src.At(0, 1) = 1.0f;
  dense_src.At(1, 0) = 2.0f;
  dense_src.At(1, 2) = 3.0f;
  dense_src.At(2, 2) = 4.0f;
  const t::SparseMatrix sm = t::SparseMatrix::FromDense(dense_src);
  ASSERT_EQ(sm.nnz(), 4);
  t::Tensor x(3, 5);
  for (int64_t i = 0; i < x.size(); ++i) x[i] = 1.0f;
  (void)sm.MatMul(x);
  const auto stats = obs::SnapshotKernelStats();
  const obs::KernelStats* s = Find(stats, "spmm", CsrSpmmVariant());
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->flops, 40.0);
}

TEST_F(KernelScopeTest, PairDotDeclaresTwoFlopsPerPairPerFeature) {
  // E = 4 pairs of width d = 6 on edge_dot: one call, 2 * 4 * 6 = 48 FLOPs.
  auto pairs = std::make_shared<autograd::EdgeList>();
  pairs->src = {0, 1, 2, 2};
  pairs->dst = {1, 2, 0, 2};
  pairs->num_nodes = 3;
  t::Tensor h(3, 6);
  for (int64_t i = 0; i < h.size(); ++i) h[i] = 1.0f;
  (void)autograd::PairDot(autograd::Variable::Constant(h), pairs);
  const auto stats = obs::SnapshotKernelStats();
  const obs::KernelStats* s = Find(stats, "edge_dot", CsrSpmmVariant());
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->calls, 1u);
  EXPECT_DOUBLE_EQ(s->flops, 48.0);
}

TEST_F(KernelScopeTest, AggregatesAccumulateAcrossCalls) {
  t::Tensor a(2, 2), b(2, 2);
  for (int i = 0; i < 3; ++i) (void)t::MatMul(a, b);
  const auto stats = obs::SnapshotKernelStats();
  const obs::KernelStats* s = Find(stats, "matmul", MatMulVariant());
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->calls, 3u);
  EXPECT_DOUBLE_EQ(s->flops, 3 * 2.0 * 2 * 2 * 2);
}

TEST_F(KernelScopeTest, NestedScopesSplitInclusiveAndExclusiveTime) {
  {
    obs::KernelScope outer("nest_outer", "v", 1000.0, 0.0);
    {
      obs::KernelScope inner("nest_inner", "v", 100.0, 0.0);
      // Some measurable work so the inner span has nonzero width.
      volatile double sink = 0;
      for (int i = 0; i < 50000; ++i) sink = sink + i;
    }
  }
  const auto stats = obs::SnapshotKernelStats();
  const obs::KernelStats* outer = Find(stats, "nest_outer", "v");
  const obs::KernelStats* inner = Find(stats, "nest_inner", "v");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Exact same-thread attribution: the parent's exclusive time is its
  // inclusive time minus the child's inclusive time — summing exclusive
  // times across scopes never double-counts the nested work.
  EXPECT_DOUBLE_EQ(outer->exclusive_ns,
                   outer->inclusive_ns - inner->inclusive_ns);
  EXPECT_DOUBLE_EQ(inner->exclusive_ns, inner->inclusive_ns);
  EXPECT_GT(inner->inclusive_ns, 0.0);
  // Declared work stays inclusive — the outer scope keeps its full estimate.
  EXPECT_DOUBLE_EQ(outer->flops, 1000.0);
}

TEST_F(KernelScopeTest, ScopeOnAnotherThreadDoesNotDebitTheParent) {
  // Counters and child attribution are per-thread: a scope opened by a
  // worker (an OpenMP team member, a serving thread) must not subtract from
  // a scope that happens to be open on this thread.
  {
    obs::KernelScope outer("xthread_outer", "v", 10.0, 0.0);
    std::thread worker([] {
      obs::KernelScope inner("xthread_inner", "v", 5.0, 0.0);
      volatile double sink = 0;
      for (int i = 0; i < 10000; ++i) sink = sink + i;
    });
    worker.join();
  }
  const auto stats = obs::SnapshotKernelStats();
  const obs::KernelStats* outer = Find(stats, "xthread_outer", "v");
  const obs::KernelStats* inner = Find(stats, "xthread_inner", "v");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // No same-thread children: the parent's exclusive time equals its
  // inclusive time even though the worker's scope ran entirely inside it.
  EXPECT_DOUBLE_EQ(outer->exclusive_ns, outer->inclusive_ns);
  EXPECT_EQ(inner->calls, 1u);
}

TEST_F(KernelScopeTest, CounterValidityMatchesPerfAvailability) {
  t::Tensor a(4, 4), b(4, 4);
  (void)t::MatMul(a, b);
  const auto stats = obs::SnapshotKernelStats();
  const obs::KernelStats* s = Find(stats, "matmul", MatMulVariant());
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->counters.valid, obs::PerfCountersAvailable());
  if (obs::PerfCountersAvailable()) {
    EXPECT_GT(s->counters.instructions, 0u);
    EXPECT_GT(s->counters.Ipc(), 0.0);
  } else {
    // Clock-only fallback: rates report 0 instead of garbage.
    EXPECT_EQ(s->counters.Ipc(), 0.0);
    EXPECT_EQ(s->counters.LlcMissRate(), 0.0);
  }
}

TEST(PerfFallbackTest, SesPerfDisableForcesCleanFallback) {
  // The probe runs once per thread; a fresh thread re-probes after the
  // process-wide latch reset and must hit the SES_PERF_DISABLE branch.
  ::setenv("SES_PERF_DISABLE", "1", 1);
  obs::PerfResetForTest();
  bool available = true;
  bool valid = true;
  std::string reason;
  std::thread probe([&] {
    const obs::PerfCounts counts = obs::ReadPerfCounts();
    valid = counts.valid;
    available = obs::PerfCountersAvailable();
    reason = obs::PerfUnavailableReason();
  });
  probe.join();
  ::unsetenv("SES_PERF_DISABLE");
  obs::PerfResetForTest();
  EXPECT_FALSE(available);
  EXPECT_FALSE(valid);
  EXPECT_NE(reason.find("SES_PERF_DISABLE"), std::string::npos) << reason;
}

/// Names of the Prometheus series exported for `kernel`'s KernelScopes.
std::vector<std::string> KernelSeries(const std::string& kernel) {
  std::ostringstream prom;
  obs::MetricsRegistry::Get().WritePrometheus(prom);
  std::vector<std::string> series;
  std::istringstream lines(prom.str());
  const std::string label = "kernel=\"" + kernel + "\"";
  for (std::string line; std::getline(lines, line);)
    if (line.find(label) != std::string::npos)
      series.push_back(line.substr(0, line.find('{')));
  return series;
}

bool HasSeries(const std::vector<std::string>& series,
               const std::string& name) {
  return std::find(series.begin(), series.end(), name) != series.end();
}

TEST(PerfFallbackTest, DisabledCountersPublishNoRateSeries) {
  // Under the clock-only fallback IPC and LLC miss rate are unknown, so a
  // scope must not publish them (a 0 would read as a measurement). Its
  // other series still appear.
  ::setenv("SES_PERF_DISABLE", "1", 1);
  obs::PerfResetForTest();
  obs::EnableKernelProfiling(true);
  std::thread worker(
      [] { obs::KernelScope scope("perf_disabled_probe", "clock", 1.0, 4.0); });
  worker.join();
  obs::EnableKernelProfiling(false);
  ::unsetenv("SES_PERF_DISABLE");
  obs::PerfResetForTest();

  const std::vector<std::string> series = KernelSeries("perf_disabled_probe");
  EXPECT_TRUE(HasSeries(series, "ses_kernel_calls"));
  EXPECT_FALSE(HasSeries(series, "ses_kernel_ipc"));
  EXPECT_FALSE(HasSeries(series, "ses_kernel_llc_miss_rate"));
}

TEST(PerfFallbackTest, UncalibratedRooflinePublishesNoEfficiencySeries) {
  // Before CalibrateRoofline() a kernel's roofline efficiency is unknown, so
  // the series must stay absent (not read 0) until the first placement
  // against a calibrated model.
  const obs::RooflineModel saved = obs::CurrentRoofline();
  obs::SetRooflineForTest(obs::RooflineModel{});
  obs::EnableKernelProfiling(true);
  { obs::KernelScope scope("roofline_probe", "clock", 1.0, 4.0); }
  std::vector<std::string> series = KernelSeries("roofline_probe");
  EXPECT_TRUE(HasSeries(series, "ses_kernel_calls"));
  EXPECT_FALSE(HasSeries(series, "ses_kernel_roofline_efficiency"));

  obs::RooflineModel calibrated;
  calibrated.peak_gflops = 100.0;
  calibrated.peak_bw_gbs = 10.0;
  calibrated.calibrated = true;
  obs::SetRooflineForTest(calibrated);
  { obs::KernelScope scope("roofline_probe", "clock", 1.0, 4.0); }
  obs::EnableKernelProfiling(false);
  obs::SetRooflineForTest(saved);
  series = KernelSeries("roofline_probe");
  EXPECT_TRUE(HasSeries(series, "ses_kernel_roofline_efficiency"));
}

TEST(PerfCountsTest, SubtractionSaturatesInsteadOfWrapping) {
  obs::PerfCounts a, b;
  a.cycles = 10;
  a.instructions = 5;
  a.valid = true;
  b.cycles = 3;
  b.instructions = 50;  // multiplex scaling can overshoot the parent
  b.valid = true;
  a -= b;
  EXPECT_EQ(a.cycles, 7u);
  EXPECT_EQ(a.instructions, 0u) << "must saturate, not wrap to ~2^64";
  EXPECT_TRUE(a.valid);
}

// ---------------------------------------------------------------------------
// Roofline model math (calibration-free, via SetRooflineForTest).

TEST(RooflineTest, MemoryBoundPointSitsUnderTheBandwidthCeiling) {
  obs::RooflineModel model;
  model.peak_gflops = 100.0;
  model.peak_bw_gbs = 10.0;
  model.calibrated = true;
  EXPECT_DOUBLE_EQ(model.RidgeIntensity(), 10.0);
  // intensity 1 FLOP/byte -> attainable = min(100, 1 * 10) = 10 GFLOP/s.
  const obs::RooflinePoint p =
      obs::PlaceOnRoofline(/*flops=*/1e9, /*bytes=*/1e9, /*seconds=*/1.0,
                           model);
  EXPECT_DOUBLE_EQ(p.achieved_gflops, 1.0);
  EXPECT_DOUBLE_EQ(p.intensity, 1.0);
  EXPECT_DOUBLE_EQ(p.attainable_gflops, 10.0);
  EXPECT_DOUBLE_EQ(p.efficiency, 0.1);
  EXPECT_STREQ(p.bound, "memory");
}

TEST(RooflineTest, ComputeBoundPointSitsUnderTheFlopCeiling) {
  obs::RooflineModel model;
  model.peak_gflops = 100.0;
  model.peak_bw_gbs = 10.0;
  model.calibrated = true;
  // intensity 50 -> memory ceiling 500 > peak 100: compute bound.
  const obs::RooflinePoint p =
      obs::PlaceOnRoofline(/*flops=*/50e9, /*bytes=*/1e9, /*seconds=*/1.0,
                           model);
  EXPECT_DOUBLE_EQ(p.attainable_gflops, 100.0);
  EXPECT_DOUBLE_EQ(p.efficiency, 0.5);
  EXPECT_STREQ(p.bound, "compute");
}

TEST(RooflineTest, UncalibratedModelYieldsAchievedRateOnly) {
  const obs::RooflinePoint p =
      obs::PlaceOnRoofline(1e9, 1e9, 1.0, obs::RooflineModel{});
  EXPECT_DOUBLE_EQ(p.achieved_gflops, 1.0);
  EXPECT_DOUBLE_EQ(p.efficiency, 0.0);
  EXPECT_STREQ(p.bound, "unknown");
}

// ---------------------------------------------------------------------------
// Kernel spans in the Chrome trace.

/// The trace-event line whose name is `name` ("" if none).
std::string TraceEventLine(const std::string& trace, const std::string& name) {
  std::istringstream lines(trace);
  for (std::string line; std::getline(lines, line);)
    if (line.find("{\"name\":\"" + name + "\"") == 0) return line;
  return "";
}

/// Value of a numeric field ("ts", "dur") of one trace-event line, in ns.
int64_t TraceFieldNs(const std::string& line, const std::string& field) {
  const size_t at = line.find("\"" + field + "\":");
  EXPECT_NE(at, std::string::npos) << field << " in " << line;
  if (at == std::string::npos) return -1;
  return std::llround(std::stod(line.substr(at + field.size() + 3)) * 1e3);
}

TEST(ChromeTraceTest, KernelSpanCarriesVariantAndNestsInItsParent) {
  obs::ResetTracing();
  obs::EnableTracing(true);
  obs::EnableKernelProfiling(true);
  {
    SES_TRACE_SPAN("ct_root");
    {
      obs::KernelScope inner("ct_kernel", "fast", 10.0, 0.0);
      volatile double sink = 0;
      for (int i = 0; i < 20000; ++i) sink = sink + i;
    }
  }
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  obs::EnableKernelProfiling(false);
  obs::EnableTracing(false);
  obs::ResetTracing();

  const std::string trace = out.str();
  const std::string root = TraceEventLine(trace, "ct_root");
  const std::string kernel = TraceEventLine(trace, "ct_kernel");
  ASSERT_FALSE(root.empty()) << trace;
  ASSERT_FALSE(kernel.empty()) << trace;
  EXPECT_NE(kernel.find("\"args\":{\"variant\":\"fast\""), std::string::npos)
      << kernel;
  EXPECT_NE(kernel.find("\"flops\":10"), std::string::npos) << kernel;
  const int64_t root_ts = TraceFieldNs(root, "ts");
  const int64_t kernel_ts = TraceFieldNs(kernel, "ts");
  EXPECT_GT(TraceFieldNs(kernel, "dur"), 0) << kernel;
  EXPECT_LE(root_ts, kernel_ts);
  EXPECT_LE(kernel_ts + TraceFieldNs(kernel, "dur"),
            root_ts + TraceFieldNs(root, "dur"));
}

}  // namespace
