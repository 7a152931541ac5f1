#ifndef SES_TENSOR_OPS_H_
#define SES_TENSOR_OPS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "kernels/dispatch.h"
#include "tensor/tensor.h"

namespace ses::tensor {

/// Raw (non-differentiable) kernels. The hot ops (MatMul, Add/Sub/Mul, Relu,
/// gather/scatter) route through the runtime-dispatched SIMD tables in
/// src/kernels; the autograd layer composes these into forward/backward
/// passes, and inference-only code paths (metrics, explainer scoring, t-SNE)
/// call them directly.

/// The OpenMP cutover now lives with the kernels (kernels::ShouldParallelize
/// guards every parallel loop, dense and sparse alike); this alias keeps the
/// historical spelling working for existing callers.
inline constexpr int64_t kOmpWorkThreshold = kernels::kOmpWorkThreshold;

/// C = A * B. Register-tiled, OpenMP-parallel over row blocks.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = A^T * B: packs A^T once, then MatMul's kernel (bitwise equal to
/// MatMul(Transpose(a), b) at every tier).
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);

/// C = A * B^T: packs B^T once, then MatMul's kernel (bitwise equal to
/// MatMul(a, Transpose(b)) at every tier).
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);

/// Transpose.
Tensor Transpose(const Tensor& a);

/// Elementwise binary ops (shapes must match).
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

/// out[r, c] = a[r, c] + bias[c]; `bias` is 1 x C or C x 1.
Tensor AddRowVector(const Tensor& a, const Tensor& bias);

/// Elementwise unary ops.
Tensor Scale(const Tensor& a, float s);
Tensor AddScalar(const Tensor& a, float s);
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);  ///< natural log; clamps input at 1e-12.
Tensor Sqrt(const Tensor& a);
Tensor Sigmoid(const Tensor& a);  ///< SigmoidOf per element.
/// The logistic sigmoid, split at 0 so neither side overflows, with one
/// exp(-|z|) shared by both sides (a branch with an exp in each arm cost
/// twice the time on negative inputs).
inline float SigmoidOf(float z) {
  const float e = std::exp(-std::fabs(z));
  return z >= 0.0f ? 1.0f / (1.0f + e) : e / (1.0f + e);
}
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float slope);
Tensor Elu(const Tensor& a, float alpha = 1.0f);

/// Row-wise softmax / log-softmax (numerically stabilized).
Tensor SoftmaxRows(const Tensor& a);
Tensor LogSoftmaxRows(const Tensor& a);

/// Reductions.
Tensor SumRows(const Tensor& a);  ///< N x C -> N x 1
Tensor SumCols(const Tensor& a);  ///< N x C -> 1 x C

/// Index of the max entry in each row.
std::vector<int64_t> ArgmaxRows(const Tensor& a);

/// out[i, :] = a[index[i], :].
Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& index);

/// Pointer-span variant for callers that batch indices without materializing
/// a vector (the serving scheduler gathers logit slices for whole request
/// batches this way). Duplicate indices are allowed.
Tensor GatherRows(const Tensor& a, const int64_t* index, int64_t n);

/// argmax over row `index[i]` of `a` for each i — the batched form of the
/// serving predict readout (one pass over B rows instead of B locked calls).
std::vector<int64_t> ArgmaxGatherRows(const Tensor& a, const int64_t* index,
                                      int64_t n);

/// out[index[i], :] += a[i, :]; `out` must be pre-sized to rows x a.cols().
void ScatterAddRows(const Tensor& a, const std::vector<int64_t>& index,
                    Tensor* out);

/// Horizontal concatenation [a | b].
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Vertical concatenation [a; b].
Tensor ConcatRows(const Tensor& a, const Tensor& b);

/// Rows r with lo <= r < hi.
Tensor SliceRows(const Tensor& a, int64_t lo, int64_t hi);

/// Squared Euclidean distance between each pair of rows: N x N output.
Tensor PairwiseSquaredDistances(const Tensor& a);

/// L2-normalizes each row (rows with norm < eps are left untouched).
Tensor NormalizeRows(const Tensor& a, float eps = 1e-12f);

}  // namespace ses::tensor

#endif  // SES_TENSOR_OPS_H_
