// Kernel observatory benchmark: per-kernel wall time, declared GFLOP/s and
// arithmetic intensity for every hot kernel family, plus the CSR SpMM at
// every SIMD tier the host supports.
//
// With kernel profiling enabled, the benchmark first sweeps the CSR SpMM
// kernel over each supported tier (same graph, same operands) and takes the
// SIMD-vs-scalar speedup from that sweep alone, then drives each annotated
// kernel family through a sized workload. The per-(kernel, variant)
// aggregates collected by KernelScope — the same ses.kernel.* data a live
// /metrics scrape shows — are written as JSON to --out (default
// BENCH_kernels.json).
//
// scripts/bench_check.sh gates per-kernel GFLOP/s regressions (>20% drop)
// against the committed baseline whenever both JSONs carry the "kernels"
// block, and floors spmm_simd_speedup; scripts/ci.sh runs it in the
// `kernels` stage.
//
// Flags: --out=PATH, --reps=N (per-kernel repetitions), --smoke (tiny
// shapes for CI), plus the obs::Session flags (--trace-out,
// --metrics-port, ...).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "autograd/sparse_ops.h"
#include "autograd/variable.h"
#include "bench_common.h"
#include "kernels/dispatch.h"
#include "kernels/spmm.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "util/rng.h"

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

/// Random CSR matrix with ~`per_row` nonzeros per row.
t::SparseMatrix RandomSparse(int64_t rows, int64_t cols, int64_t per_row,
                             util::Rng* rng) {
  t::SparseMatrix sm;
  sm.rows = rows;
  sm.cols = cols;
  sm.row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t k = 0; k < per_row; ++k) {
      sm.col_idx.push_back(
          static_cast<int64_t>(rng->Uniform() * static_cast<double>(cols)) %
          cols);
      sm.values.push_back(static_cast<float>(rng->Uniform()) + 0.1f);
    }
    sm.row_ptr[static_cast<size_t>(r) + 1] = sm.nnz();
  }
  return sm;
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

/// Best GFLOP/s among spmm entries whose variant passes `pred`.
template <typename Pred>
double BestSpmmGflops(const std::vector<obs::KernelStats>& stats, Pred pred) {
  double best = 0.0;
  for (const obs::KernelStats& s : stats)
    if (s.kernel == "spmm" && pred(s.variant)) best = std::max(best, s.Gflops());
  return best;
}

/// SIMD-vs-scalar SpMM speedup from a snapshot holding only the per-tier
/// sweep: best SIMD-tier GFLOP/s over best scalar-tier GFLOP/s (0 when
/// either side is missing).
double SpmmSimdSpeedup(const std::vector<obs::KernelStats>& stats) {
  const double scalar = BestSpmmGflops(stats, [](const std::string& v) {
    return v.size() > 7 && v.rfind("_scalar") == v.size() - 7;
  });
  const double simd = BestSpmmGflops(stats, [](const std::string& v) {
    return v.find("_avx") != std::string::npos;
  });
  return scalar > 0.0 && simd > 0.0 ? simd / scalar : 0.0;
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
  // bench_check.sh compares like variant to like variant and falls back to
  // best-of when the baseline predates variants.
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
  const t::SparseMatrix sm = RandomSparse(sp_rows, sp_rows, sp_per_row, &rng);
  const t::Tensor dense = RandomTensor(sp_rows, feat, &rng);
  const ag::EdgeListPtr edges = RandomEdges(sp_rows, sp_per_row, &rng);
  const ag::Variable edge_w = ag::Variable::Constant(
      RandomTensor(edges->size(), 1, &rng));
  const ag::Variable xvar = ag::Variable::Constant(dense);
  const t::Tensor ew_a = RandomTensor(ew, 1, &rng);
  const t::Tensor ew_b = RandomTensor(ew, 1, &rng);
  std::vector<int64_t> gather_idx(static_cast<size_t>(sp_rows));
  for (size_t i = 0; i < gather_idx.size(); ++i)
    gather_idx[i] = static_cast<int64_t>(
        rng.Uniform() * static_cast<double>(sp_rows)) % sp_rows;

  // One untimed warmup pass (page faults, the memoized CSR plan of the edge
  // list), then drop the aggregates so the report covers steady-state calls
  // only.
  const ag::InferenceGuard no_grad;  // tape-free: measure the kernels only
  (void)t::MatMul(a, b);
  (void)sm.MatMul(dense);
  (void)ag::SpMM(edges, edge_w, xvar);
  obs::ResetKernelStats();

  // Per-tier SpMM sweep: the CSR kernel at every tier the host supports,
  // like-for-like over the same graph and operands. It runs first, on an
  // empty table, so the snapshot below holds exactly `reps` sweep calls per
  // tier and spmm_simd_speedup compares one workload across tiers. Its
  // entries stay in the table and the family loop below adds the active
  // tier's SparseMatrix::MatMul and ag::SpMM calls to that tier's entry.
  // Unsupported tiers are logged, not silently skipped.
  {
    const kernels::CsrAdj& csr = edges->plan()->csr;
    const int64_t e_count = edges->size();
    const double sweep_flops = 2.0 * static_cast<double>(e_count) * feat;
    const double sweep_bytes =
        static_cast<double>(e_count) * (20.0 + 4.0 * feat) +
        4.0 * static_cast<double>(sp_rows) * feat;
    for (int tier_i = 0; tier_i < kernels::kNumSimdTiers; ++tier_i) {
      const auto tier = static_cast<kernels::SimdTier>(tier_i);
      if (!kernels::TierSupported(tier)) {
        std::printf("spmm sweep: tier %s unsupported on this host, skipped\n",
                    kernels::TierName(tier));
        continue;
      }
      const kernels::Dispatch& d = kernels::DispatchFor(tier);
      for (int64_t r = 0; r < reps; ++r) {
        t::Tensor out_t = t::Tensor::Zeros(sp_rows, feat);
        obs::KernelScope kscope("spmm", d.spmm_variant, sweep_flops,
                                sweep_bytes);
        d.spmm_csr(csr.rows, csr.row_ptr.data(), csr.col.data(),
                   csr.perm_or_null(), edge_w.value().data(), dense.data(),
                   feat, out_t.data(), /*bias=*/nullptr, /*relu=*/false);
      }
    }
  }
  const double spmm_simd_speedup = SpmmSimdSpeedup(obs::SnapshotKernelStats());

  for (int64_t r = 0; r < reps; ++r) {
    (void)t::MatMul(a, b);                   // matmul|dense_<tier>
    (void)t::MatMulTransposedB(a, b);        // matmul|bt
    (void)t::MatMulTransposedA(a, b);        // matmul|at
    (void)sm.MatMul(dense);                  // spmm|csr_<tier>
    (void)ag::SpMM(edges, edge_w, xvar);     // spmm|csr_<tier>
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
  std::printf("spmm simd speedup: %.2fx\n", spmm_simd_speedup);

  WriteJson(out_path, stats, spmm_simd_speedup);
  return 0;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
