#ifndef SES_KERNELS_KERNEL_IMPL_H_
#define SES_KERNELS_KERNEL_IMPL_H_

/// Internal: shared loop bodies for the per-tier translation units.
///
/// Each tier TU (kernels_scalar.cc, kernels_avx2.cc, kernels_avx512.cc)
/// defines an `Ops` struct of static inline primitives built from its
/// intrinsics, then instantiates these templates. The loop structure
/// (iteration order, zero-skips, OpenMP cutover, epilogue placement) is
/// therefore written once and provably identical across tiers; only the
/// per-element arithmetic differs.
///
/// `Ops` supplies two kinds of primitive:
///  - row primitives — Axpy, Add, BiasAct, BinAdd/BinSub/BinMul, Relu —
///    that read and write memory;
///  - register-tile primitives for MatMul and CSR SpMM, on `Ops::Vec` (a
///    vector of `kLanes` floats):
///      Tail TailMask(n)         the first n lanes, 1 <= n <= kLanes
///      Vec Load(p) / LoadTail(p, tail)
///                               lanes past the tail read as zero and their
///                               memory is never touched
///      Store(p, v) / StoreTail(p, v, tail)
///      Bcast Set1(a)            a scalar operand
///      Vec Fma(c, a, b)         c + a*b with the tier's rounding
///      Vec FmaIfNonzero(c, a, b)  same, but every lane keeps c when
///                               a == 0, so NaN/Inf in b cannot leak
///      Vec AddV(a, b), ReluV(v) the epilogue
///    plus kSpmmVecs / kMatMulVecs, the tile width in Vecs.
///
/// A tile holds its output in registers from one load to one store. Per
/// element it must perform exactly the operation sequence of repeated
/// `Axpy` calls — `c = c ⊕ a·b` over k (MatMul) or over the row's nonzeros
/// in CSR order (SpMM), then bias, then ReLU — with the same rounding:
/// that is what keeps scalar ≡ reference, edges ≡ csr and sharded ≡ single
/// bitwise.

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>

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

/// Calls f(std::integral_constant<int, V>{}) for V == nv, 1 <= nv <= kMax:
/// a tile's vector count becomes a compile-time constant, so its
/// accumulators are registers rather than an indexed array in memory.
template <int kMax, int V = 1, class F>
inline void WithVecCount(int64_t nv, F&& f) {
  if constexpr (V < kMax) {
    if (nv != V) return WithVecCount<kMax, V + 1>(nv, std::forward<F>(f));
  }
  f(std::integral_constant<int, V>{});
}

/// How a row of width n >= 1 splits into column passes of up to kVecs Vecs:
/// `full` leading passes of kVecs full Vecs, then one last pass of
/// `last_vecs` Vecs whose final Vec holds `last_tail` lanes.
template <class Ops, int kVecs>
struct ColumnPasses {
  static constexpr int64_t kWidth = kVecs * Ops::kLanes;
  explicit ColumnPasses(int64_t n)
      : full((n - 1) / kWidth),
        last_vecs((n - full * kWidth + Ops::kLanes - 1) / Ops::kLanes),
        full_tail(Ops::TailMask(Ops::kLanes)),
        last_tail(Ops::TailMask(n - full * kWidth -
                                (last_vecs - 1) * Ops::kLanes)) {}
  int64_t full;
  int64_t last_vecs;
  typename Ops::Tail full_tail;
  typename Ops::Tail last_tail;
};

/// Rows of the MatMul register tile: kMatMulRows x kMatMulVecs Vecs of C
/// gives that many independent FMA chains per step of k.
inline constexpr int64_t kMatMulRows = 4;

/// C[0..kRows)[0..w) += A[0..kRows)[0..k) · B[0..k)[0..w) for one tile of
/// kRows rows and kVecs Vecs (the last one `tail` lanes wide); a, b and c
/// point at the tile's first element, with row strides k, n and n. The
/// zero-skip is a masked FMA: a zero A entry leaves its C row unchanged,
/// without a branch that would mispredict on ReLU activations.
template <class Ops, int kRows, int kVecs>
inline void MatMulTile(const float* a, const float* b, float* c, int64_t k,
                       int64_t n, typename Ops::Tail tail) {
  constexpr int64_t L = Ops::kLanes;
  constexpr int kLast = kVecs - 1;
  typename Ops::Vec acc[kRows][kVecs];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < kLast; ++v) acc[r][v] = Ops::Load(c + r * n + v * L);
    acc[r][kLast] = Ops::LoadTail(c + r * n + kLast * L, tail);
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * n;
    typename Ops::Vec bv[kVecs];
#pragma GCC unroll 8
    for (int v = 0; v < kLast; ++v) bv[v] = Ops::Load(brow + v * L);
    bv[kLast] = Ops::LoadTail(brow + kLast * L, tail);
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      const typename Ops::Bcast av = Ops::Set1(a[r * k + kk]);
#pragma GCC unroll 8
      for (int v = 0; v < kVecs; ++v)
        acc[r][v] = Ops::FmaIfNonzero(acc[r][v], av, bv[v]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < kLast; ++v) Ops::Store(c + r * n + v * L, acc[r][v]);
    Ops::StoreTail(c + r * n + kLast * L, acc[r][kLast], tail);
  }
}

/// kRows rows of C, every column pass.
template <class Ops, int kRows, int kLastVecs>
inline void MatMulRowBlock(const float* a, const float* b, float* c,
                           int64_t k, int64_t n,
                           const ColumnPasses<Ops, Ops::kMatMulVecs>& p) {
  constexpr int64_t W = ColumnPasses<Ops, Ops::kMatMulVecs>::kWidth;
  for (int64_t q = 0; q < p.full; ++q)
    MatMulTile<Ops, kRows, Ops::kMatMulVecs>(a, b + q * W, c + q * W, k, n,
                                             p.full_tail);
  MatMulTile<Ops, kRows, kLastVecs>(a, b + p.full * W, c + p.full * W, k, n,
                                    p.last_tail);
}

template <class Ops, int kLastVecs>
void MatMulRows(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n,
                const ColumnPasses<Ops, Ops::kMatMulVecs>& p, bool par) {
  const int64_t blocks = m / kMatMulRows;
#pragma omp parallel for schedule(static) if (par)
  for (int64_t ib = 0; ib < blocks; ++ib) {
    const int64_t i = ib * kMatMulRows;
    MatMulRowBlock<Ops, kMatMulRows, kLastVecs>(a + i * k, b, c + i * n, k, n,
                                                p);
  }
  for (int64_t i = blocks * kMatMulRows; i < m; ++i)
    MatMulRowBlock<Ops, 1, kLastVecs>(a + i * k, b, c + i * n, k, n, p);
}

template <class Ops>
void MatMulImpl(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  if (m == 0 || n == 0) return;
  const bool par = ShouldParallelize(2.0 * static_cast<double>(m) * k * n);
  const ColumnPasses<Ops, Ops::kMatMulVecs> p(n);
  WithVecCount<Ops::kMatMulVecs>(p.last_vecs, [&](auto last) {
    MatMulRows<Ops, decltype(last)::value>(a, b, c, m, k, n, p, par);
  });
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

/// One CSR row's output segment dst[0..w) in kVecs Vecs (the last one
/// `tail` lanes wide): loaded once, one Fma per nonzero entry and Vec in
/// CSR order, bias and ReLU applied in registers, stored once. x, dst and
/// bias point at the segment's first column; x has row stride f.
template <class Ops, int kVecs>
inline void SpmmCsrRowPass(const int64_t* col, const int64_t* perm,
                           const float* w, int64_t e_begin, int64_t e_end,
                           const float* x, int64_t f, float* dst,
                           const float* bias, bool relu,
                           typename Ops::Tail tail) {
  constexpr int64_t L = Ops::kLanes;
  constexpr int kLast = kVecs - 1;
  typename Ops::Vec acc[kVecs];
#pragma GCC unroll 8
  for (int v = 0; v < kLast; ++v) acc[v] = Ops::Load(dst + v * L);
  acc[kLast] = Ops::LoadTail(dst + kLast * L, tail);
  for (int64_t e = e_begin; e < e_end; ++e) {
    const float we = w[perm != nullptr ? perm[e] : e];
    if (we == 0.0f) continue;
    const typename Ops::Bcast a = Ops::Set1(we);
    const float* src = x + col[e] * f;
#pragma GCC unroll 8
    for (int v = 0; v < kLast; ++v)
      acc[v] = Ops::Fma(acc[v], a, Ops::Load(src + v * L));
    acc[kLast] = Ops::Fma(acc[kLast], a, Ops::LoadTail(src + kLast * L, tail));
  }
  if (bias != nullptr) {
#pragma GCC unroll 8
    for (int v = 0; v < kLast; ++v)
      acc[v] = Ops::AddV(acc[v], Ops::Load(bias + v * L));
    acc[kLast] = Ops::AddV(acc[kLast], Ops::LoadTail(bias + kLast * L, tail));
  }
  if (relu) {
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) acc[v] = Ops::ReluV(acc[v]);
  }
#pragma GCC unroll 8
  for (int v = 0; v < kLast; ++v) Ops::Store(dst + v * L, acc[v]);
  Ops::StoreTail(dst + kLast * L, acc[kLast], tail);
}

template <class Ops, int kLastVecs>
void SpmmCsrRows(int64_t rows, const int64_t* row_ptr, const int64_t* col,
                 const int64_t* perm, const float* w, const float* x,
                 int64_t f, float* out, const float* bias, bool relu,
                 const ColumnPasses<Ops, Ops::kSpmmVecs>& p, bool par) {
  constexpr int64_t W = ColumnPasses<Ops, Ops::kSpmmVecs>::kWidth;
#pragma omp parallel for schedule(dynamic, 64) if (par)
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t e_begin = row_ptr[r], e_end = row_ptr[r + 1];
    float* dst = out + r * f;
    for (int64_t q = 0; q < p.full; ++q)
      SpmmCsrRowPass<Ops, Ops::kSpmmVecs>(
          col, perm, w, e_begin, e_end, x + q * W, f, dst + q * W,
          bias != nullptr ? bias + q * W : nullptr, relu, p.full_tail);
    const int64_t j = p.full * W;
    SpmmCsrRowPass<Ops, kLastVecs>(col, perm, w, e_begin, e_end, x + j, f,
                                   dst + j, bias != nullptr ? bias + j : nullptr,
                                   relu, p.last_tail);
  }
}

template <class Ops>
void SpmmCsrImpl(int64_t rows, const int64_t* row_ptr, const int64_t* col,
                 const int64_t* perm, const float* w, const float* x,
                 int64_t f, float* out, const float* bias, bool relu) {
  if (f == 0) return;
  const double nnz = static_cast<double>(row_ptr[rows]);
  const bool par = ShouldParallelize(2.0 * nnz * static_cast<double>(f));
  const ColumnPasses<Ops, Ops::kSpmmVecs> p(f);
  WithVecCount<Ops::kSpmmVecs>(p.last_vecs, [&](auto last) {
    SpmmCsrRows<Ops, decltype(last)::value>(rows, row_ptr, col, perm, w, x, f,
                                            out, bias, relu, p, par);
  });
}

}  // namespace ses::kernels::detail

#endif  // SES_KERNELS_KERNEL_IMPL_H_
