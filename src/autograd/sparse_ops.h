#ifndef SES_AUTOGRAD_SPARSE_OPS_H_
#define SES_AUTOGRAD_SPARSE_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "kernels/spmm.h"
#include "tensor/sparse.h"

namespace ses::autograd {

/// Shared immutable edge list (src -> dst). Ops capture it by shared_ptr so
/// per-epoch graph rebuilds never copy the index arrays.
///
/// Fill `src`/`dst`/`num_nodes` once after construction and treat the list
/// as frozen: `plan()` memoizes the CSR-by-destination view against the
/// current arrays, and every SpMM over this list runs the CSR kernel over
/// it — taped and InferenceGuard forwards alike. The SpMM backward runs the
/// same kernel over `transposed_plan()`, and PairCosineMask's backward over
/// both views of its pair list.
struct EdgeList {
  std::vector<int64_t> src;
  std::vector<int64_t> dst;
  int64_t num_nodes = 0;
  /// Lazily-built memoized kernel plans (copying an EdgeList resets them).
  kernels::SpmmPlanCell plan_cell;
  kernels::SpmmPlanCell transposed_plan_cell;

  int64_t size() const { return static_cast<int64_t>(src.size()); }

  /// The memoized per-graph SpMM plan; built on first use, thread-safe.
  std::shared_ptr<const kernels::SpmmPlan> plan() const {
    return plan_cell.Get(src.data(), dst.data(), size(), num_nodes);
  }

  /// The memoized plan of the reversed edges (CSR by source: row s lists
  /// the edges leaving s, in edge order), for the gradient dx = Aᵀg. Built
  /// on the first backward only, so tape-free serving never pays for it.
  std::shared_ptr<const kernels::SpmmPlan> transposed_plan() const {
    return transposed_plan_cell.Get(dst.data(), src.data(), size(),
                                    num_nodes);
  }
};

using EdgeListPtr = std::shared_ptr<const EdgeList>;

/// Sparse-dense product with differentiable edge weights:
///   out[dst[e], :] += w[e] * x[src[e], :]
/// Gradients flow to both `w` (E x 1) and `x` (N x F). This is the op that
/// lets SES co-train the structure mask with the encoder (Eq. 8): the mask
/// enters the aggregation as `w` and receives d(loss)/d(w_e) directly.
/// The forward runs the CSR kernel at the active SIMD tier over the edge
/// list's memoized plan (kernels/spmm.h).
Variable SpMM(const EdgeListPtr& edges, const Variable& edge_weight,
              const Variable& x);

/// SpMM with the GCN epilogue fused into the aggregation pass:
///   out = act(SpMM(edges, w, x) + bias),  act = ReLU when `relu`
/// `bias` (1 x F) may be undefined. One pass over CSR rows applies
/// normalize-weighted aggregation, bias add, and activation while the row is
/// hot — equivalent to the SpMM → AddRowVector → Relu chain bitwise at
/// scalar tier and per-tier deterministically at SIMD tiers. Used by both
/// taped and InferenceGuard paths; gradients flow to `w`, `x`, and `bias`.
Variable SpMMBiasAct(const EdgeListPtr& edges, const Variable& edge_weight,
                     const Variable& x, const Variable& bias, bool relu);

/// The structure-mask score of every pair (Eqs. 4–5), in one op:
///   out[e] = sigmoid(gain · cos(hp[src[e]], hp[dst[e]]) + bias)   (E x 1)
/// with cos(a, b) = ⟨a, b⟩ / (‖a‖‖b‖) and ‖a‖ = sqrt(Σ a² + 1e-9), so an
/// all-zero row scores sigmoid(bias). `gain` and `bias` are 1 x 1. It reads
/// the N x d `hp` directly and never materialises an E x d tensor. The
/// dots are Dispatch::edge_dot, and one loop over the pairs applies the
/// rest. The backward is one loop over the pairs for the gain, bias, dot
/// weights and norm gradients, then dhp += A·hp + Aᵀ·hp (A the dot weights
/// on the pairs) as two CSR SpMMs over the pair list's memoized `plan()`
/// and `transposed_plan()`, plus the norms' per-row hp/‖hp‖ term
/// (DESIGN.md §14.3). `pairs->num_nodes` must equal hp's row count, and
/// every pair index must lie in [0, num_nodes); both are checked once per
/// call.
Variable PairCosineMask(const Variable& hp, const EdgeListPtr& pairs,
                        const Variable& gain, const Variable& bias);

/// Numerically-stable softmax over incoming edges grouped by destination:
///   y_e = exp(s_e) / sum_{e': dst[e'] == dst[e]} exp(s_{e'})
/// Scores and output are E x 1. Used by GAT attention.
Variable EdgeSoftmax(const EdgeListPtr& edges, const Variable& scores);

/// First-layer linear map over sparse input features with an optional
/// per-nonzero feature mask:
///   out[i, :] = sum_{e in row i} mask[e] * x_val[e] * W[col(e), :]
/// `mask` may be undefined (treated as all-ones). Gradients flow to `W` and,
/// when defined, to `mask` (nnz x 1) — never densifying N x F. The forward
/// and dW are CSR SpMMs (over x, and over x grouped by column), dmask an
/// edge_dot.
Variable SparseMaskedLinear(const std::shared_ptr<const tensor::SparseMatrix>& x,
                            const Variable& mask, const Variable& w);

/// Evaluates the feature-mask head only at the nonzero feature positions:
///   m[e] = sigmoid( h[row(e), :] . w2[:, col(e)] + b2[col(e)] )
/// for each nonzero e of `pattern`. Output is nnz x 1. This computes Eq. (3)
/// restricted to the entries that E_feat = M_f ⊙ X can ever expose, turning
/// an O(N*F*H) dense MLP head into O(nnz*H): an edge_dot against w2ᵀ, and
/// CSR SpMMs for dh and dw2.
Variable FeatureMaskAtNnz(const Variable& h, const Variable& w2,
                          const Variable& b2,
                          const std::shared_ptr<const tensor::SparseMatrix>& pattern);

}  // namespace ses::autograd

#endif  // SES_AUTOGRAD_SPARSE_OPS_H_
