// Kernel observatory benchmark: per-kernel wall time, declared GFLOP/s and
// arithmetic intensity for every hot kernel family, plus the CSR SpMM at
// every SIMD tier the host supports.
//
// With kernel profiling enabled, the benchmark first sweeps the CSR SpMM
// kernel over each supported tier (same graph, same operands), then drives
// each annotated kernel family through a sized workload. The per-(kernel,
// variant) aggregates collected by KernelScope — the same ses.kernel.* data
// a live /metrics scrape shows — are written as JSON to --out (default
// BENCH_kernels.json).
//
// The exit status enforces two floors measured within this one run, so the
// host state that moves every kernel of a run together cancels out. Each
// floor compares the median per-call wall time of two workloads of equal
// FLOPs, timed call by call and interleaved rep by rep, so a stall of a few
// ms moves one call rather than the figure:
//   - every SIMD tier's SpMM runs at >= 1.5x the scalar tier's speed
//     (skipped, with a log line, on a host without a SIMD tier);
//   - `matmul|bt` and `matmul|at` each reach >= 0.5x the speed of
//     `matmul|dense_<active tier>`: both pack the transposed operand and run
//     the dense kernel, so anything much slower is a structural regression
//     (the old unpacked `bt` read 0.06x).
// scripts/ci.sh runs it in the `kernels-dispatch` stage.
//
// Flags: --out=PATH, --reps=N (per-kernel repetitions), --smoke (tiny
// shapes for CI), plus the obs::Session flags (--trace-out,
// --metrics-port, ...).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/sparse_ops.h"
#include "bench_common.h"
#include "kernels/dispatch.h"
#include "kernels/spmm.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ses;
namespace ag = ses::autograd;
namespace t = ses::tensor;

namespace {

t::Tensor RandomTensor(int64_t rows, int64_t cols, util::Rng* rng) {
  t::Tensor x(rows, cols);
  for (int64_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(rng->Uniform()) - 0.5f;
  return x;
}

/// Random edge list: `per_node` incoming edges per destination node.
ag::EdgeListPtr RandomEdges(int64_t num_nodes, int64_t per_node,
                            util::Rng* rng) {
  auto edges = std::make_shared<ag::EdgeList>();
  edges->num_nodes = num_nodes;
  for (int64_t d = 0; d < num_nodes; ++d) {
    for (int64_t k = 0; k < per_node; ++k) {
      edges->src.push_back(
          static_cast<int64_t>(rng->Uniform() * static_cast<double>(num_nodes)) %
          num_nodes);
      edges->dst.push_back(d);
    }
  }
  return edges;
}

constexpr double kMinSpmmSimdSpeedup = 1.5;
constexpr double kMinTransposedMatmulRatio = 0.5;

/// Wall time of one call of `fn`, in seconds.
template <typename Fn>
double TimeCall(Fn&& fn) {
  util::Timer timer;
  fn();
  return timer.ElapsedSeconds();
}

/// Median of per-call times (the mean of the middle two for an even count).
double Median(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  const size_t mid = times.size() / 2;
  return times.size() % 2 == 1 ? times[mid]
                               : 0.5 * (times[mid - 1] + times[mid]);
}

void WriteJson(const std::string& path,
               const std::vector<obs::KernelStats>& stats,
               double spmm_simd_speedup) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  // schema_version 2: variant labels carry the dispatched SIMD tier
  // ("csr_avx2", "dense_scalar", ...), spmm has one entry per swept tier,
  // and the file records the active tier plus the measured SIMD speedup.
  out << "{\n  \"schema_version\": 2,\n";
  out << "  \"active_tier\": \"" << kernels::TierName(kernels::ActiveTier())
      << "\",\n";
  out << "  \"spmm_simd_speedup\": " << spmm_simd_speedup << ",\n";
  out << "  \"kernels\": {";
  bool first = true;
  for (const obs::KernelStats& s : stats) {
    if (!first) out << ",";
    first = false;
    out << "\n    \"" << s.kernel << "|" << s.variant << "\": {"
        << "\"kernel\": \"" << s.kernel << "\", \"variant\": \"" << s.variant
        << "\", \"calls\": " << s.calls
        << ", \"time_ms\": " << s.inclusive_ns / 1e6
        << ", \"gflops\": " << s.Gflops() << ", \"gbps\": " << s.GBps()
        << ", \"intensity\": " << s.Intensity() << "}";
  }
  out << "\n  }\n}\n";
  std::printf("kernel benchmark written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  obs::Session obs_session(flags);
  const bool smoke = flags.GetBool("smoke", false);
  const int64_t reps = flags.GetInt("reps", smoke ? 2 : 12);
  const std::string out_path =
      flags.GetString("out", "BENCH_kernels.json");

  obs::EnableKernelProfiling(true);

  // Workload shapes. The fast profile fits the 1-2 core CI box; --smoke
  // shrinks further so the ASan runs finish in seconds.
  const int64_t mm = smoke ? 96 : 320;          // dense matmul side
  const int64_t sp_rows = smoke ? 1024 : 8192;  // sparse rows/cols
  const int64_t sp_per_row = 10;                // avg degree (Cora-like)
  const int64_t feat = smoke ? 32 : 64;         // feature width
  const int64_t ew = smoke ? 1 << 16 : 1 << 21; // element-wise length

  util::Rng rng(42);
  const t::Tensor a = RandomTensor(mm, mm, &rng);
  const t::Tensor b = RandomTensor(mm, mm, &rng);
  const t::Tensor dense = RandomTensor(sp_rows, feat, &rng);
  const ag::EdgeListPtr edges = RandomEdges(sp_rows, sp_per_row, &rng);
  const t::Tensor edge_w = RandomTensor(edges->size(), 1, &rng);
  const t::Tensor ew_a = RandomTensor(ew, 1, &rng);
  const t::Tensor ew_b = RandomTensor(ew, 1, &rng);
  std::vector<int64_t> gather_idx(static_cast<size_t>(sp_rows));
  for (size_t i = 0; i < gather_idx.size(); ++i)
    gather_idx[i] = static_cast<int64_t>(
        rng.Uniform() * static_cast<double>(sp_rows)) % sp_rows;

  // One untimed warmup call (page faults), then drop the aggregates so the
  // report covers steady-state calls only.
  (void)t::MatMul(a, b);
  obs::ResetKernelStats();

  // Per-tier SpMM sweep: the CSR kernel at every tier the host supports,
  // like-for-like over the same graph and operands. Each spmm|csr_<tier>
  // entry holds exactly `reps` sweep calls and nothing else. Unsupported
  // tiers are logged, not silently skipped.
  std::vector<const kernels::Dispatch*> tiers;
  for (int tier_i = 0; tier_i < kernels::kNumSimdTiers; ++tier_i) {
    const auto tier = static_cast<kernels::SimdTier>(tier_i);
    if (kernels::TierSupported(tier))
      tiers.push_back(&kernels::DispatchFor(tier));
    else
      std::printf("spmm sweep: tier %s unsupported on this host, skipped\n",
                  kernels::TierName(tier));
  }
  std::vector<std::vector<double>> spmm_call_s(tiers.size());
  {
    const kernels::CsrAdj& csr = edges->plan()->csr;
    const int64_t e_count = edges->size();
    const double sweep_flops = 2.0 * static_cast<double>(e_count) * feat;
    const double sweep_bytes =
        static_cast<double>(e_count) * (20.0 + 4.0 * feat) +
        4.0 * static_cast<double>(sp_rows) * feat;
    for (int64_t r = 0; r < reps; ++r) {
      for (size_t i = 0; i < tiers.size(); ++i) {
        const kernels::Dispatch& d = *tiers[i];
        t::Tensor out_t = t::Tensor::Zeros(sp_rows, feat);
        spmm_call_s[i].push_back(TimeCall([&] {
          obs::KernelScope kscope("spmm", d.spmm_variant, sweep_flops,
                                  sweep_bytes);
          d.spmm_csr(csr.rows, csr.row_ptr.data(), csr.col.data(),
                     csr.perm_or_null(), edge_w.data(), dense.data(), feat,
                     out_t.data(), /*bias=*/nullptr, /*relu=*/false);
        }));
      }
    }
  }

  // dense, bt and at each multiply two mm x mm operands: equal FLOPs.
  std::vector<double> dense_s, bt_s, at_s;
  for (int64_t r = 0; r < reps; ++r) {
    dense_s.push_back(TimeCall([&] { (void)t::MatMul(a, b); }));
    bt_s.push_back(TimeCall([&] { (void)t::MatMulTransposedB(a, b); }));
    at_s.push_back(TimeCall([&] { (void)t::MatMulTransposedA(a, b); }));
    (void)t::Add(ew_a, ew_b);                // elementwise|binary_<tier>
    (void)t::Relu(ew_a);                     // elementwise|unary_<tier>
    (void)t::GatherRows(dense, gather_idx);  // row_gather|copy
    t::Tensor scatter_out(sp_rows, feat);    // scatter_add|rows_<tier>
    t::ScatterAddRows(dense, gather_idx, &scatter_out);
  }

  const std::vector<obs::KernelStats> stats = obs::SnapshotKernelStats();
  std::printf("active tier: %s\n", kernels::TierName(kernels::ActiveTier()));
  std::printf("%-24s %10s %12s %10s %10s\n", "kernel", "calls", "time_ms",
              "GFLOP/s", "intensity");
  for (const obs::KernelStats& s : stats) {
    std::printf("%-24s %10llu %12.3f %10.3f %10.3f\n",
                (s.kernel + "|" + s.variant).c_str(),
                static_cast<unsigned long long>(s.calls),
                s.inclusive_ns / 1e6, s.Gflops(), s.Intensity());
  }

  // Each SIMD tier's SpMM over the scalar tier's (tiers[0]); the JSON
  // records the best.
  bool ok = true;
  double spmm_simd_speedup = 0.0;
  const double scalar_s = Median(spmm_call_s[0]);
  for (size_t i = 1; i < tiers.size(); ++i) {
    const double speedup = scalar_s / Median(spmm_call_s[i]);
    std::printf("spmm|%s: %.2fx the speed of spmm|csr_scalar, median per "
                "call (floor %.1fx)\n",
                tiers[i]->spmm_variant, speedup, kMinSpmmSimdSpeedup);
    ok = ok && speedup >= kMinSpmmSimdSpeedup;
    spmm_simd_speedup = std::max(spmm_simd_speedup, speedup);
  }
  if (tiers.size() == 1)
    std::printf("spmm: no SIMD tier on this host, speedup floor skipped\n");
  const std::string dense_name =
      std::string("matmul|dense_") + kernels::TierName(kernels::ActiveTier());
  const double dense_s_median = Median(dense_s);
  for (const auto& [name, call_s] :
       {std::pair{"matmul|bt", &bt_s}, std::pair{"matmul|at", &at_s}}) {
    const double ratio = dense_s_median / Median(*call_s);
    std::printf("%s: %.2fx the speed of %s, median per call (floor %.1fx)\n",
                name, ratio, dense_name.c_str(), kMinTransposedMatmulRatio);
    ok = ok && ratio >= kMinTransposedMatmulRatio;
  }
  WriteJson(out_path, stats, spmm_simd_speedup);
  if (!ok) std::fprintf(stderr, "bench_kernels: a kernel floor failed\n");
  return ok ? 0 : 1;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
