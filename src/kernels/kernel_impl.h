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
///  - row primitives — Axpy, Add, BinAdd/BinSub/BinMul, Relu —
///    that read and write memory, and Dot, which returns a row dot product;
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
/// A tile holds its output in registers from one load (MatMul) or from zero
/// (SpMM) to one store. Per element it must perform exactly the operation
/// sequence of repeated `Axpy` calls — `c = c ⊕ a·b` over k (MatMul) or over the row's nonzeros
/// in CSR order (SpMM), then bias, then ReLU — with the same rounding:
/// that is what keeps scalar ≡ reference and sharded ≡ single bitwise.

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

/// Runs body(i) for every i in [0, n): a plain loop when `par` is false,
/// an OpenMP `parallel for` otherwise (`schedule(dynamic, kDynamicChunk)`
/// when kDynamicChunk > 0, static else). `#pragma omp parallel for if (par)`
/// is not enough: with `par` false it still opens a one-thread region, a
/// fixed ~0.3-0.5 us per call that dominates kernels over ego-net
/// subgraphs of a few dozen edges.
template <int kDynamicChunk = 0, class Body>
inline void ParallelFor(bool par, int64_t n, Body&& body) {
  if (!par) {
    for (int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  if constexpr (kDynamicChunk > 0) {
#pragma omp parallel for schedule(dynamic, kDynamicChunk)
    for (int64_t i = 0; i < n; ++i) body(i);
  } else {
#pragma omp parallel for schedule(static)
    for (int64_t i = 0; i < n; ++i) body(i);
  }
}

/// Element-wise loops run in fixed chunks so OpenMP can split them while the
/// tier primitive keeps long unit-stride runs.
inline constexpr int64_t kElementwiseChunk = 1 << 15;

/// body(lo, len) over [0, n) in kElementwiseChunk pieces.
template <class Body>
inline void ForEachChunk(int64_t n, Body&& body) {
  const int64_t nb = (n + kElementwiseChunk - 1) / kElementwiseChunk;
  ParallelFor(ShouldParallelize(static_cast<double>(n)), nb, [&](int64_t i) {
    const int64_t lo = i * kElementwiseChunk;
    body(lo, std::min(kElementwiseChunk, n - lo));
  });
}

template <class Ops>
void VecAddImpl(const float* a, const float* b, float* out, int64_t n) {
  ForEachChunk(n, [&](int64_t lo, int64_t len) {
    Ops::BinAdd(a + lo, b + lo, out + lo, len);
  });
}

template <class Ops>
void VecSubImpl(const float* a, const float* b, float* out, int64_t n) {
  ForEachChunk(n, [&](int64_t lo, int64_t len) {
    Ops::BinSub(a + lo, b + lo, out + lo, len);
  });
}

template <class Ops>
void VecMulImpl(const float* a, const float* b, float* out, int64_t n) {
  ForEachChunk(n, [&](int64_t lo, int64_t len) {
    Ops::BinMul(a + lo, b + lo, out + lo, len);
  });
}

template <class Ops>
void VecReluImpl(const float* a, float* out, int64_t n) {
  ForEachChunk(n, [&](int64_t lo, int64_t len) {
    Ops::Relu(a + lo, out + lo, len);
  });
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
  ParallelFor(par, blocks, [&](int64_t ib) {
    const int64_t i = ib * kMatMulRows;
    MatMulRowBlock<Ops, kMatMulRows, kLastVecs>(a + i * k, b, c + i * n, k, n,
                                                p);
  });
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
  // One-column gathers (per-edge normalisers) are one load each; a row copy
  // per element would cost a library call per element.
  if (cols == 1) {
    for (int64_t i = 0; i < n; ++i) out[i] = a[index[i]];
    return;
  }
  for (int64_t i = 0; i < n; ++i)
    std::copy(a + index[i] * cols, a + (index[i] + 1) * cols, out + i * cols);
}

template <class Ops>
void EdgeDotImpl(int64_t n_edges, const int64_t* src, const int64_t* dst,
                 const float* x, const float* y, int64_t f, float* out) {
  if (f == 0) return;
  const bool par = ShouldParallelize(2.0 * static_cast<double>(n_edges) * f);
  ParallelFor(par, n_edges, [=](int64_t e) {
    out[e] += Ops::Dot(x + src[e] * f, y + dst[e] * f, f);
  });
}

/// One CSR row's output segment dst[0..w) in kVecs Vecs (the last one
/// `tail` lanes wide): started at zero in registers, one Fma per nonzero
/// entry and Vec in CSR order, bias and ReLU applied in registers, stored
/// once. dst is never read: on ego-net subgraphs loading the just-zeroed
/// row cost more than the row's arithmetic (DESIGN §14.1). x, dst and bias
/// point at the segment's first column; x has row stride f.
template <class Ops, int kVecs>
inline void SpmmCsrRowPass(const int64_t* col, const int32_t* perm,
                           const float* w, int64_t e_begin, int64_t e_end,
                           const float* x, int64_t f, float* dst,
                           const float* bias, bool relu,
                           typename Ops::Tail tail) {
  constexpr int64_t L = Ops::kLanes;
  constexpr int kLast = kVecs - 1;
  typename Ops::Vec acc[kVecs];
#pragma GCC unroll 8
  for (int v = 0; v < kVecs; ++v) acc[v] = Ops::Set1(0.0f);
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
                 const int32_t* perm, const float* w, const float* x,
                 int64_t f, float* out, const float* bias, bool relu,
                 const ColumnPasses<Ops, Ops::kSpmmVecs>& p, bool par) {
  constexpr int64_t W = ColumnPasses<Ops, Ops::kSpmmVecs>::kWidth;
  // One sweep over the rows per column pass (one sweep in all for widths
  // up to W, which covers the encoders' hidden and class widths). Each
  // loop captures by value and has nothing else live, so the serial loop
  // keeps its state in registers; a single row loop over all passes
  // spilled it and re-read it on every row, up to ~40% slower on ego-net
  // subgraphs.
  for (int64_t q = 0; q <= p.full; ++q) {
    const int64_t j = q * W;
    const float* bias_j = bias != nullptr ? bias + j : nullptr;
    if (q < p.full) {
      const typename Ops::Tail tail = p.full_tail;
      ParallelFor<64>(par, rows, [=](int64_t r) {
        SpmmCsrRowPass<Ops, Ops::kSpmmVecs>(col, perm, w, row_ptr[r],
                                            row_ptr[r + 1], x + j, f,
                                            out + r * f + j, bias_j, relu,
                                            tail);
      });
    } else {
      const typename Ops::Tail tail = p.last_tail;
      ParallelFor<64>(par, rows, [=](int64_t r) {
        SpmmCsrRowPass<Ops, kLastVecs>(col, perm, w, row_ptr[r],
                                       row_ptr[r + 1], x + j, f,
                                       out + r * f + j, bias_j, relu, tail);
      });
    }
  }
}

template <class Ops>
void SpmmCsrImpl(int64_t rows, const int64_t* row_ptr, const int64_t* col,
                 const int32_t* perm, const float* w, const float* x,
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
