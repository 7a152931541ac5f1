#ifndef SES_KERNELS_KERNEL_IMPL_H_
#define SES_KERNELS_KERNEL_IMPL_H_

/// Internal: shared loop bodies for the per-tier translation units.
///
/// Each tier TU (kernels_scalar.cc, kernels_avx2.cc, kernels_avx512.cc)
/// defines an `Ops` struct of static inline row primitives — Axpy, Add,
/// BiasAct, BinAdd/BinSub/BinMul, Relu — built from its intrinsics, then
/// instantiates these templates. The loop structure (iteration order,
/// zero-skips, OpenMP cutover, epilogue placement) is therefore written once
/// and provably identical across tiers; only the per-row arithmetic differs.

#include <algorithm>
#include <cstdint>

#include "kernels/dispatch.h"

namespace ses::kernels::detail {

/// One table per tier, each defined by its own translation unit.
extern const Dispatch kDispatchScalar;
extern const Dispatch kDispatchAvx2;
extern const Dispatch kDispatchAvx512;

/// Element-wise loops run in fixed chunks so OpenMP can split them while the
/// tier primitive keeps long unit-stride runs.
inline constexpr int64_t kElementwiseChunk = 1 << 15;

template <class Ops>
void VecAddImpl(const float* a, const float* b, float* out, int64_t n) {
  const bool par = ShouldParallelize(static_cast<double>(n));
  const int64_t nb = (n + kElementwiseChunk - 1) / kElementwiseChunk;
#pragma omp parallel for schedule(static) if (par)
  for (int64_t i = 0; i < nb; ++i) {
    const int64_t lo = i * kElementwiseChunk;
    const int64_t len = std::min(kElementwiseChunk, n - lo);
    Ops::BinAdd(a + lo, b + lo, out + lo, len);
  }
}

template <class Ops>
void VecSubImpl(const float* a, const float* b, float* out, int64_t n) {
  const bool par = ShouldParallelize(static_cast<double>(n));
  const int64_t nb = (n + kElementwiseChunk - 1) / kElementwiseChunk;
#pragma omp parallel for schedule(static) if (par)
  for (int64_t i = 0; i < nb; ++i) {
    const int64_t lo = i * kElementwiseChunk;
    const int64_t len = std::min(kElementwiseChunk, n - lo);
    Ops::BinSub(a + lo, b + lo, out + lo, len);
  }
}

template <class Ops>
void VecMulImpl(const float* a, const float* b, float* out, int64_t n) {
  const bool par = ShouldParallelize(static_cast<double>(n));
  const int64_t nb = (n + kElementwiseChunk - 1) / kElementwiseChunk;
#pragma omp parallel for schedule(static) if (par)
  for (int64_t i = 0; i < nb; ++i) {
    const int64_t lo = i * kElementwiseChunk;
    const int64_t len = std::min(kElementwiseChunk, n - lo);
    Ops::BinMul(a + lo, b + lo, out + lo, len);
  }
}

template <class Ops>
void VecReluImpl(const float* a, float* out, int64_t n) {
  const bool par = ShouldParallelize(static_cast<double>(n));
  const int64_t nb = (n + kElementwiseChunk - 1) / kElementwiseChunk;
#pragma omp parallel for schedule(static) if (par)
  for (int64_t i = 0; i < nb; ++i) {
    const int64_t lo = i * kElementwiseChunk;
    const int64_t len = std::min(kElementwiseChunk, n - lo);
    Ops::Relu(a + lo, out + lo, len);
  }
}

template <class Ops>
void MatMulImpl(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  const bool par = ShouldParallelize(2.0 * static_cast<double>(m) * k * n);
#pragma omp parallel for schedule(static) if (par)
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;  // exploits sparse inputs (bag-of-words).
      Ops::Axpy(crow, b + kk * n, n, av);
    }
  }
}

inline void GatherRowsImpl(const float* a, int64_t cols, const int64_t* index,
                           int64_t n, float* out) {
  for (int64_t i = 0; i < n; ++i)
    std::copy(a + index[i] * cols, a + (index[i] + 1) * cols, out + i * cols);
}

template <class Ops>
void SpmmEdgesImpl(const int64_t* esrc, const int64_t* edst, const float* w,
                   int64_t e_count, const float* x, int64_t f, float* out) {
  for (int64_t e = 0; e < e_count; ++e) {
    const float we = w[e];
    if (we == 0.0f) continue;
    Ops::Axpy(out + edst[e] * f, x + esrc[e] * f, f, we);
  }
}

template <class Ops>
void SpmmCsrImpl(int64_t rows, const int64_t* row_ptr, const int64_t* col,
                 const int64_t* perm, const float* w, const float* x,
                 int64_t f, float* out, const float* bias, bool relu) {
  const double nnz = static_cast<double>(row_ptr[rows]);
  const bool par = ShouldParallelize(2.0 * nnz * static_cast<double>(f));
  const bool epilogue = bias != nullptr || relu;
#pragma omp parallel for schedule(dynamic, 64) if (par)
  for (int64_t r = 0; r < rows; ++r) {
    float* dst = out + r * f;
    for (int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      const float v = w[perm != nullptr ? perm[e] : e];
      if (v == 0.0f) continue;
      Ops::Axpy(dst, x + col[e] * f, f, v);
    }
    if (epilogue) Ops::BiasAct(dst, bias, f, relu);
  }
}

}  // namespace ses::kernels::detail

#endif  // SES_KERNELS_KERNEL_IMPL_H_
