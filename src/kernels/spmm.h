#ifndef SES_KERNELS_SPMM_H_
#define SES_KERNELS_SPMM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "kernels/dispatch.h"

namespace ses::kernels {

/// ---------------------------------------------------------------------------
/// Per-graph SpMM plan.
///
/// Aggregation SpMMs run thousands of times over the same adjacency (per
/// epoch in training, per request in serving), so the CSR-by-destination
/// view of an edge list is built once and memoized in an `SpmmPlan` that
/// lives on the owning EdgeList. Every aggregation runs the one CSR kernel
/// (`Dispatch::spmm_csr`) at the active SIMD tier, whatever the graph's
/// size: there is no per-graph layout choice.

/// Structure-only CSR view of an edge list, grouped by destination. Entries
/// keep their original edge order within each row (stable counting sort), so
/// per-row accumulation order equals edge order. `perm` maps each entry back
/// to its edge index for weight lookup (weights change every call; the
/// structure does not). It is empty when the edges were already grouped by
/// destination: entry e is then edge e.
struct CsrAdj {
  int64_t rows = 0;  ///< destination nodes
  std::vector<int64_t> row_ptr;  ///< size rows + 1
  std::vector<int64_t> col;      ///< source node per entry (edge order)
  std::vector<int32_t> perm;     ///< entry -> original edge index, or empty

  int64_t nnz() const { return static_cast<int64_t>(col.size()); }
  /// The `perm` argument of Dispatch::spmm_csr: null for the identity.
  const int32_t* perm_or_null() const {
    return perm.empty() ? nullptr : perm.data();
  }
};

/// Builds the CSR-by-destination view with a stable counting sort: O(E + N),
/// no comparisons, entry order within each row == edge order. Edges whose
/// destinations are already non-decreasing are copied, with no `perm`. At
/// most INT32_MAX edges (checked).
CsrAdj BuildCsrByDst(const int64_t* src, const int64_t* dst, int64_t e,
                     int64_t n);

/// Immutable per-graph plan: the CSR view, built once. Thread-safe by
/// construction; serving threads share one plan and it keeps no pointer to
/// the edge arrays it was built from.
struct SpmmPlan {
  CsrAdj csr;

  /// Writes the weighted aggregation into out (rows x f) at the active
  /// tier, then the optional fused epilogue (bias/ReLU).
  void Run(const float* w, const float* x, int64_t f, float* out,
           const float* bias, bool relu) const;
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
