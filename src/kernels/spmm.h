#ifndef SES_KERNELS_SPMM_H_
#define SES_KERNELS_SPMM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "kernels/dispatch.h"

namespace ses::kernels {

/// ---------------------------------------------------------------------------
/// Per-graph SpMM planning and autotuning.
///
/// Aggregation SpMMs run thousands of times over the same adjacency (per
/// epoch in training, per request in serving), so the per-graph work — a
/// CSR-by-destination view of the edge list, cheap graph statistics, and the
/// variant decision derived from them — is computed once and memoized in an
/// `SpmmPlan` that lives on the owning EdgeList. Every variant at one SIMD
/// tier accumulates each output row in edge order (see CsrAdj), so they are
/// bitwise-equal to each other: the choice is purely a performance decision
/// and can never change numerics. It is still a deterministic function of
/// (graph statistics, feature width, active SIMD tier), so the kernel that
/// serves a graph is predictable and reported in metrics.

/// Structure-only CSR view of an edge list, grouped by destination. Entries
/// keep their original edge order within each row (stable counting sort), so
/// per-row accumulation order equals edge order — the property that makes
/// csr_* bitwise-equal to edges_* at the same tier. `perm` maps each entry
/// back to its edge index for weight lookup (weights change every call; the
/// structure does not).
struct CsrAdj {
  int64_t rows = 0;  ///< destination nodes
  std::vector<int64_t> row_ptr;  ///< size rows + 1
  std::vector<int64_t> col;      ///< source node per entry (edge order)
  std::vector<int64_t> perm;     ///< entry -> original edge index

  int64_t nnz() const { return static_cast<int64_t>(col.size()); }
};

/// Builds the CSR-by-destination view with a stable counting sort: O(E + N),
/// no comparisons, entry order within each row == edge order.
CsrAdj BuildCsrByDst(const int64_t* src, const int64_t* dst, int64_t e,
                     int64_t n);

/// Cheap statistics the plan decides from. Degree means in-degree (by
/// destination — the scatter side that determines SpMM locality).
struct GraphStats {
  int64_t nodes = 0;
  int64_t nnz = 0;
  int64_t max_degree = 0;
};

GraphStats ComputeGraphStats(const int64_t* dst, int64_t e, int64_t n);

enum class SpmmAlgo : int {
  kEdgeOrder = 0,  ///< edge-stream scatter; no per-graph setup
  kCsr = 1,        ///< CSR-by-dst rows, edge order preserved
};
inline constexpr int kNumSpmmAlgos = 2;

struct SpmmChoice {
  SpmmAlgo algo = SpmmAlgo::kCsr;
  SimdTier tier = SimdTier::kScalar;
};

/// Static-storage variant label ("csr_avx512", "edges_scalar", ...) for
/// KernelScope / metrics / bench entries.
const char* SpmmVariantName(SpmmChoice choice);

/// The deterministic decision rule: a pure function of (stats, feature
/// width, tier). Exposed directly for the CI determinism check.
SpmmChoice HeuristicSpmmChoice(const GraphStats& stats, int64_t feat,
                               SimdTier tier);

/// Memoized per-graph plan: stats eagerly, CSR views lazily (an edge-order
/// decision never pays for the CSR build), choice per feature width. All
/// accessors are thread-safe; serving threads share one plan.
///
/// The plan RETAINS the src/dst pointers it was built from — it lives inside
/// the owning EdgeList (see SpmmPlanCell), whose index arrays are immutable
/// and outlive it. Callers that copy a plan pointer out must keep the
/// EdgeListPtr alive alongside it.
class SpmmPlan {
 public:
  SpmmPlan(const int64_t* src, const int64_t* dst, int64_t e, int64_t n);

  const GraphStats& stats() const { return stats_; }

  /// The variant decision for feature width `feat`, memoized per width.
  SpmmChoice Choose(int64_t feat) const;

  /// Runs the chosen SpMM: out(nodes x f, zero-initialized) accumulates the
  /// weighted aggregation, then the optional fused epilogue (bias/ReLU).
  void Run(SpmmChoice choice, const float* w, const float* x, int64_t f,
           float* out, const float* bias, bool relu) const;

 private:
  const CsrAdj& EnsureCsr() const;

  const int64_t* src_ = nullptr;
  const int64_t* dst_ = nullptr;
  int64_t edges_ = 0;
  GraphStats stats_;
  mutable std::mutex mu_;
  mutable CsrAdj csr_;          ///< rows empty until built
  mutable bool csr_built_ = false;
  mutable std::vector<std::pair<int64_t, SpmmChoice>> choice_memo_;
};

/// Holder for the plan an EdgeList memoizes. Copy/move produce an EMPTY cell
/// (plans describe one index array instance); Get() rebuilds if the edge
/// count or node count no longer match.
class SpmmPlanCell {
 public:
  SpmmPlanCell() = default;
  SpmmPlanCell(const SpmmPlanCell&) {}
  SpmmPlanCell(SpmmPlanCell&&) noexcept {}
  SpmmPlanCell& operator=(const SpmmPlanCell&) { return *this; }
  SpmmPlanCell& operator=(SpmmPlanCell&&) noexcept { return *this; }

  std::shared_ptr<const SpmmPlan> Get(const int64_t* src, const int64_t* dst,
                                      int64_t e, int64_t n) const;

 private:
  mutable std::mutex mu_;
  mutable std::shared_ptr<const SpmmPlan> plan_;
};

}  // namespace ses::kernels

#endif  // SES_KERNELS_SPMM_H_
