#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "kernels/dispatch.h"
#include "obs/kernel_scope.h"
#include "util/logging.h"

namespace ses::tensor {
namespace {

using obs::KernelScope;

template <typename F>
Tensor UnaryOp(const Tensor& a, F f) {
  const int64_t n = a.size();
  // 1 FLOP/element is nominal (transcendentals cost more); 8 B = load+store.
  KernelScope scope("elementwise", "unary", static_cast<double>(n),
                    8.0 * static_cast<double>(n));
  Tensor out(a.rows(), a.cols());
  const float* src = a.data();
  float* dst = out.data();
#pragma omp parallel for schedule(static) \
    if (kernels::ShouldParallelize(static_cast<double>(n)))
  for (int64_t i = 0; i < n; ++i) dst[i] = f(src[i]);
  return out;
}

/// Dispatched element-wise binary op: one table call over the whole buffer,
/// chunked+OpenMP inside the kernel. The scope's variant label carries the
/// active SIMD tier into metrics/bench.
Tensor DispatchedBinary(const Tensor& a, const Tensor& b,
                        void (*fn)(const float*, const float*, float*,
                                   int64_t),
                        const char* variant) {
  SES_CHECK(a.SameShape(b));
  const int64_t n = a.size();
  KernelScope scope("elementwise", variant, static_cast<double>(n),
                    12.0 * static_cast<double>(n));
  Tensor out(a.rows(), a.cols());
  fn(a.data(), b.data(), out.data(), n);
  return out;
}

/// Declared traffic of an m×k · k×n matmul: each operand streamed once.
inline double MatMulBytes(int64_t m, int64_t k, int64_t n) {
  return 4.0 * (static_cast<double>(m) * k + static_cast<double>(k) * n +
                static_cast<double>(m) * n);
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  SES_CHECK(a.cols() == b.rows());
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  const kernels::Dispatch& d = kernels::GetDispatch();
  KernelScope scope("matmul", d.matmul_variant, 2.0 * m * k * n,
                    MatMulBytes(m, k, n));
  Tensor out(m, n);
  // Register-tiled microkernel with a zero-skip on A on the dispatched tier;
  // OpenMP over row blocks inside the kernel.
  d.matmul(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

// The transposed products pack the transposed operand once (O(k·m) or
// O(k·n) moves against O(m·k·n) FLOPs) and run the same register-tiled
// kernel as MatMul, zero-skip on the left operand included: at every tier
// they equal MatMul of the explicit transpose, bit for bit.

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  SES_CHECK(a.rows() == b.rows());
  const int64_t m = a.cols(), k = a.rows(), n = b.cols();
  KernelScope scope("matmul", "at", 2.0 * m * k * n, MatMulBytes(k, m, n));
  const Tensor at = Transpose(a);
  Tensor out(m, n);
  kernels::GetDispatch().matmul(at.data(), b.data(), out.data(), m, k, n);
  return out;
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  SES_CHECK(a.cols() == b.cols());
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  KernelScope scope("matmul", "bt", 2.0 * m * k * n, MatMulBytes(m, k, n));
  const Tensor bt = Transpose(b);
  Tensor out(m, n);
  kernels::GetDispatch().matmul(a.data(), bt.data(), out.data(), m, k, n);
  return out;
}

Tensor Transpose(const Tensor& a) {
  // 32 x 32 tiles: each tile's source rows and destination rows stay in
  // cache while it is copied, whatever the matrix's aspect ratio. OpenMP
  // over row tiles, which write disjoint destination columns.
  constexpr int64_t kTile = 32;
  const int64_t rows = a.rows(), cols = a.cols();
  Tensor out(cols, rows);
  const float* src = a.data();
  float* dst = out.data();
  const int64_t row_tiles = (rows + kTile - 1) / kTile;
#pragma omp parallel for schedule(static) \
    if (kernels::ShouldParallelize(static_cast<double>(rows) * cols))
  for (int64_t t = 0; t < row_tiles; ++t) {
    const int64_t r0 = t * kTile;
    const int64_t r1 = std::min(rows, r0 + kTile);
    for (int64_t c0 = 0; c0 < cols; c0 += kTile) {
      const int64_t c1 = std::min(cols, c0 + kTile);
      for (int64_t r = r0; r < r1; ++r)
        for (int64_t c = c0; c < c1; ++c) dst[c * rows + r] = src[r * cols + c];
    }
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  const kernels::Dispatch& d = kernels::GetDispatch();
  return DispatchedBinary(a, b, d.vec_add, d.binary_variant);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  const kernels::Dispatch& d = kernels::GetDispatch();
  return DispatchedBinary(a, b, d.vec_sub, d.binary_variant);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  const kernels::Dispatch& d = kernels::GetDispatch();
  return DispatchedBinary(a, b, d.vec_mul, d.binary_variant);
}

Tensor AddRowVector(const Tensor& a, const Tensor& bias) {
  SES_CHECK(bias.size() == a.cols());
  Tensor out(a.rows(), a.cols());
  const float* pb = bias.data();
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* src = a.RowPtr(r);
    float* dst = out.RowPtr(r);
    for (int64_t c = 0; c < a.cols(); ++c) dst[c] = src[c] + pb[c];
  }
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x * s; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x + s; });
}

Tensor Neg(const Tensor& a) {
  return UnaryOp(a, [](float x) { return -x; });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::exp(x); });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::log(std::max(x, 1e-12f)); });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::sqrt(std::max(x, 0.0f)); });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(a, [](float x) { return SigmoidOf(x); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::tanh(x); });
}

Tensor Relu(const Tensor& a) {
  const kernels::Dispatch& d = kernels::GetDispatch();
  const int64_t n = a.size();
  KernelScope scope("elementwise", d.unary_variant, static_cast<double>(n),
                    8.0 * static_cast<double>(n));
  Tensor out(a.rows(), a.cols());
  d.vec_relu(a.data(), out.data(), n);
  return out;
}

Tensor LeakyRelu(const Tensor& a, float slope) {
  return UnaryOp(a, [slope](float x) { return x > 0.0f ? x : slope * x; });
}

Tensor Elu(const Tensor& a, float alpha) {
  return UnaryOp(a, [alpha](float x) {
    return x > 0.0f ? x : alpha * (std::exp(x) - 1.0f);
  });
}

Tensor SoftmaxRows(const Tensor& a) {
  Tensor out(a.rows(), a.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* src = a.RowPtr(r);
    float* dst = out.RowPtr(r);
    float mx = src[0];
    for (int64_t c = 1; c < a.cols(); ++c) mx = std::max(mx, src[c]);
    double total = 0.0;
    for (int64_t c = 0; c < a.cols(); ++c) {
      dst[c] = std::exp(src[c] - mx);
      total += dst[c];
    }
    const float inv = static_cast<float>(1.0 / total);
    for (int64_t c = 0; c < a.cols(); ++c) dst[c] *= inv;
  }
  return out;
}

Tensor LogSoftmaxRows(const Tensor& a) {
  Tensor out(a.rows(), a.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* src = a.RowPtr(r);
    float* dst = out.RowPtr(r);
    float mx = src[0];
    for (int64_t c = 1; c < a.cols(); ++c) mx = std::max(mx, src[c]);
    double total = 0.0;
    for (int64_t c = 0; c < a.cols(); ++c) total += std::exp(src[c] - mx);
    const float lse = mx + static_cast<float>(std::log(total));
    for (int64_t c = 0; c < a.cols(); ++c) dst[c] = src[c] - lse;
  }
  return out;
}

Tensor SumRows(const Tensor& a) {
  Tensor out(a.rows(), 1);
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* src = a.RowPtr(r);
    double acc = 0.0;
    for (int64_t c = 0; c < a.cols(); ++c) acc += src[c];
    out[r] = static_cast<float>(acc);
  }
  return out;
}

Tensor SumCols(const Tensor& a) {
  Tensor out(1, a.cols());
  float* dst = out.data();
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* src = a.RowPtr(r);
    for (int64_t c = 0; c < a.cols(); ++c) dst[c] += src[c];
  }
  return out;
}

std::vector<int64_t> ArgmaxRows(const Tensor& a) {
  std::vector<int64_t> result(static_cast<size_t>(a.rows()));
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* src = a.RowPtr(r);
    int64_t best = 0;
    for (int64_t c = 1; c < a.cols(); ++c)
      if (src[c] > src[best]) best = c;
    result[static_cast<size_t>(r)] = best;
  }
  return result;
}

Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& index) {
  return GatherRows(a, index.data(), static_cast<int64_t>(index.size()));
}

Tensor GatherRows(const Tensor& a, const int64_t* index, int64_t n) {
  // Pure data movement: 0 FLOPs, each gathered row read once + written once.
  // Row memcpy is already the optimal kernel on every tier; the dispatch
  // entry exists for uniformity, the variant label stays "copy".
  KernelScope scope("row_gather", "copy", 0.0,
                    8.0 * static_cast<double>(n) * a.cols());
  Tensor out(n, a.cols());
  for (int64_t i = 0; i < n; ++i)
    SES_CHECK(index[i] >= 0 && index[i] < a.rows());
  kernels::GetDispatch().gather_rows(a.data(), a.cols(), index, n, out.data());
  return out;
}

std::vector<int64_t> ArgmaxGatherRows(const Tensor& a, const int64_t* index,
                                      int64_t n) {
  // One compare per element; each gathered row is read once.
  KernelScope scope("row_gather", "argmax",
                    static_cast<double>(n) * a.cols(),
                    4.0 * static_cast<double>(n) * a.cols());
  std::vector<int64_t> out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    SES_CHECK(index[i] >= 0 && index[i] < a.rows());
    const float* row = a.RowPtr(index[i]);
    int64_t best = 0;
    for (int64_t c = 1; c < a.cols(); ++c)
      if (row[c] > row[best]) best = c;
    out[static_cast<size_t>(i)] = best;
  }
  return out;
}

void ScatterAddRows(const Tensor& a, const std::vector<int64_t>& index,
                    Tensor* out) {
  SES_CHECK(out != nullptr && out->cols() == a.cols());
  SES_CHECK(static_cast<int64_t>(index.size()) == a.rows());
  // One add per element; source read + destination read-modify-write.
  const kernels::Dispatch& d = kernels::GetDispatch();
  KernelScope scope("scatter_add", d.scatter_variant,
                    static_cast<double>(a.rows()) * a.cols(),
                    12.0 * static_cast<double>(a.rows()) * a.cols());
  for (size_t i = 0; i < index.size(); ++i)
    SES_CHECK(index[i] >= 0 && index[i] < out->rows());
  // One-column scatters (the per-edge normaliser gradients) are one add per
  // element: the same float add `add_row` does, without a call per element.
  if (a.cols() == 1) {
    float* dst = out->data();
    const float* src = a.data();
    for (size_t i = 0; i < index.size(); ++i) dst[index[i]] += src[i];
    return;
  }
  for (size_t i = 0; i < index.size(); ++i)
    d.add_row(out->RowPtr(index[i]), a.RowPtr(static_cast<int64_t>(i)),
              a.cols());
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  SES_CHECK(a.rows() == b.rows());
  Tensor out(a.rows(), a.cols() + b.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    std::copy(a.RowPtr(r), a.RowPtr(r) + a.cols(), out.RowPtr(r));
    std::copy(b.RowPtr(r), b.RowPtr(r) + b.cols(), out.RowPtr(r) + a.cols());
  }
  return out;
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  SES_CHECK(a.cols() == b.cols());
  Tensor out(a.rows() + b.rows(), a.cols());
  std::copy(a.data(), a.data() + a.size(), out.data());
  std::copy(b.data(), b.data() + b.size(), out.data() + a.size());
  return out;
}

Tensor SliceRows(const Tensor& a, int64_t lo, int64_t hi) {
  SES_CHECK(0 <= lo && lo <= hi && hi <= a.rows());
  Tensor out(hi - lo, a.cols());
  std::copy(a.RowPtr(lo), a.RowPtr(lo) + out.size(), out.data());
  return out;
}

Tensor PairwiseSquaredDistances(const Tensor& a) {
  const int64_t n = a.rows();
  Tensor sq = SumRows(Mul(a, a));  // row squared norms
  Tensor dots = MatMulTransposedB(a, a);
  Tensor out(n, n);
#pragma omp parallel for schedule(static) \
    if (kernels::ShouldParallelize(static_cast<double>(n) * n))
  for (int64_t i = 0; i < n; ++i) {
    float* row = out.RowPtr(i);
    const float* drow = dots.RowPtr(i);
    for (int64_t j = 0; j < n; ++j)
      row[j] = std::max(0.0f, sq[i] + sq[j] - 2.0f * drow[j]);
  }
  return out;
}

Tensor NormalizeRows(const Tensor& a, float eps) {
  Tensor out = a;
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* src = a.RowPtr(r);
    double acc = 0.0;
    for (int64_t c = 0; c < a.cols(); ++c) acc += static_cast<double>(src[c]) * src[c];
    const float norm = static_cast<float>(std::sqrt(acc));
    if (norm < eps) continue;
    float* dst = out.RowPtr(r);
    for (int64_t c = 0; c < a.cols(); ++c) dst[c] /= norm;
  }
  return out;
}

}  // namespace ses::tensor
