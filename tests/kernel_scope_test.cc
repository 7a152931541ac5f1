// Tests for the kernel observatory: KernelScope work accounting (exact
// declared FLOP counts for the annotated tensor and autograd kernels),
// inclusive / exclusive attribution across nested and cross-thread scopes,
// the clock-only series contract, and kernel spans in the Chrome trace.
#include <algorithm>
#include <cmath>
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

TEST_F(KernelScopeTest, PairCosineMaskDeclaresTwoFlopsPerPairPerFeature) {
  // E = 4 pairs of width d = 6 on edge_dot: one call, 2 * 4 * 6 = 48 FLOPs.
  auto pairs = std::make_shared<autograd::EdgeList>();
  pairs->src = {0, 1, 2, 2};
  pairs->dst = {1, 2, 0, 2};
  pairs->num_nodes = 3;
  t::Tensor h(3, 6);
  for (int64_t i = 0; i < h.size(); ++i) h[i] = 1.0f;
  (void)autograd::PairCosineMask(autograd::Variable::Constant(h), pairs,
                                 autograd::Variable::Constant(t::Tensor(1, 1)),
                                 autograd::Variable::Constant(t::Tensor(1, 1)));
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
  // Child attribution is per-thread: a scope opened by a worker (an OpenMP
  // team member, a serving thread) must not subtract from a scope that
  // happens to be open on this thread.
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

bool IsClockSeries(const std::string& name) {
  return name == "ses_kernel_calls" || name == "ses_kernel_time_ms" ||
         name == "ses_kernel_gflops" || name == "ses_kernel_intensity";
}

TEST(PerfFallbackTest, DisabledCountersPublishNoRateSeries) {
  // No hardware counters are read, so per-cycle and cache-miss rates are
  // unknown and a scope must not publish them (a 0 would read as a
  // measurement). A scope on a worker thread, with no environment set-up,
  // still publishes its clock series and nothing else.
  obs::EnableKernelProfiling(true);
  std::thread worker(
      [] { obs::KernelScope scope("perf_disabled_probe", "clock", 1.0, 4.0); });
  worker.join();
  obs::EnableKernelProfiling(false);

  const std::vector<std::string> series = KernelSeries("perf_disabled_probe");
  EXPECT_NE(std::find(series.begin(), series.end(), "ses_kernel_calls"),
            series.end());
  for (const std::string& name : series)
    EXPECT_TRUE(IsClockSeries(name)) << name;
}

TEST_F(KernelScopeTest, ProfiledScopePublishesExactlyTheFourClockSeries) {
  // Accounting is clock-only: a profiled scope publishes its call count,
  // wall time, declared GFLOP/s and intensity, and no series it could not
  // measure (instructions per cycle, cache miss rates, ceiling efficiency).
  { obs::KernelScope scope("clock_only_probe", "clock", 1.0, 4.0); }
  std::vector<std::string> series = KernelSeries("clock_only_probe");
  std::sort(series.begin(), series.end());
  series.erase(std::unique(series.begin(), series.end()), series.end());
  EXPECT_EQ(series,
            (std::vector<std::string>{"ses_kernel_calls", "ses_kernel_gflops",
                                      "ses_kernel_intensity",
                                      "ses_kernel_time_ms"}));
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
  EXPECT_EQ(kernel.find("\"cycles\""), std::string::npos) << kernel;
  EXPECT_EQ(kernel.find("\"instructions\""), std::string::npos) << kernel;
  const int64_t root_ts = TraceFieldNs(root, "ts");
  const int64_t kernel_ts = TraceFieldNs(kernel, "ts");
  EXPECT_GT(TraceFieldNs(kernel, "dur"), 0) << kernel;
  EXPECT_LE(root_ts, kernel_ts);
  EXPECT_LE(kernel_ts + TraceFieldNs(kernel, "dur"),
            root_ts + TraceFieldNs(root, "dur"));
}

}  // namespace
