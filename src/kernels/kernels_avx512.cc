/// AVX-512 tier. This TU (alone) is compiled with -mavx512f -mfma; runtime
/// CPUID dispatch keeps it off CPUs without AVX-512F. 16-lane FMA bodies
/// with masked tails — no scalar remainder loop, so ragged feature widths
/// (f = 17, 333, ...) stay on the vector unit end to end. Tolerance-gated
/// against scalar like AVX2.

#include "kernels/kernel_impl.h"

#if defined(__AVX512F__) && defined(__FMA__)
#include <immintrin.h>
#define SES_KERNELS_AVX512_COMPILED 1
#else
#include "kernels/ops_scalar.h"
#endif

namespace ses::kernels::detail {
namespace {

#ifdef SES_KERNELS_AVX512_COMPILED

struct OpsAvx512 {
  // Register-tile primitives (see kernel_impl.h).
  static constexpr int64_t kLanes = 16;
  static constexpr int kSpmmVecs = 4;
  static constexpr int kMatMulVecs = 2;
  using Vec = __m512;
  using Bcast = __m512;
  using Tail = __mmask16;

  static inline Tail TailMask(int64_t n) {
    return static_cast<__mmask16>((1u << n) - 1u);
  }
  static inline Vec Load(const float* p) { return _mm512_loadu_ps(p); }
  static inline Vec LoadTail(const float* p, Tail t) {
    return _mm512_maskz_loadu_ps(t, p);
  }
  static inline void Store(float* p, Vec v) { _mm512_storeu_ps(p, v); }
  static inline void StoreTail(float* p, Vec v, Tail t) {
    _mm512_mask_storeu_ps(p, t, v);
  }
  static inline Bcast Set1(float a) { return _mm512_set1_ps(a); }
  static inline Vec Fma(Vec c, Bcast a, Vec b) {
    return _mm512_fmadd_ps(a, b, c);
  }
  static inline Vec FmaIfNonzero(Vec c, Bcast a, Vec b) {
    // Unordered-or-unequal: a NaN `a` is not skipped, like `a == 0` false.
    return _mm512_mask3_fmadd_ps(
        a, b, c, _mm512_cmp_ps_mask(a, _mm512_setzero_ps(), _CMP_NEQ_UQ));
  }
  static inline Vec AddV(Vec a, Vec b) { return _mm512_add_ps(a, b); }
  // The ReLUs use the zero-masking max with a full or tail mask: it equals
  // the plain max on live lanes, and its zero pass-through (unlike the
  // undefined one of `_mm512_max_ps`) leaves nothing for
  // -Wmaybe-uninitialized to trace.
  static inline Vec ReluV(Vec v) {
    return _mm512_maskz_max_ps(0xFFFF, v, _mm512_setzero_ps());
  }

  static inline void Axpy(float* dst, const float* src, int64_t n, float a) {
    const __m512 va = _mm512_set1_ps(a);
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
      Store(dst + i, Fma(Load(dst + i), va, Load(src + i)));
    if (i < n) {
      const Tail t = TailMask(n - i);
      StoreTail(dst + i, Fma(LoadTail(dst + i, t), va, LoadTail(src + i, t)),
                t);
    }
  }
  static inline void Add(float* dst, const float* src, int64_t n) {
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
      _mm512_storeu_ps(dst + i, _mm512_add_ps(_mm512_loadu_ps(dst + i),
                                              _mm512_loadu_ps(src + i)));
    if (i < n) {
      const __mmask16 m = TailMask(n - i);
      _mm512_mask_storeu_ps(
          dst + i, m,
          _mm512_add_ps(_mm512_maskz_loadu_ps(m, dst + i),
                        _mm512_maskz_loadu_ps(m, src + i)));
    }
  }
  static inline void BinAdd(const float* a, const float* b, float* out,
                            int64_t n) {
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
      _mm512_storeu_ps(out + i, _mm512_add_ps(_mm512_loadu_ps(a + i),
                                              _mm512_loadu_ps(b + i)));
    if (i < n) {
      const __mmask16 m = TailMask(n - i);
      _mm512_mask_storeu_ps(out + i, m,
                            _mm512_add_ps(_mm512_maskz_loadu_ps(m, a + i),
                                          _mm512_maskz_loadu_ps(m, b + i)));
    }
  }
  static inline void BinSub(const float* a, const float* b, float* out,
                            int64_t n) {
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
      _mm512_storeu_ps(out + i, _mm512_sub_ps(_mm512_loadu_ps(a + i),
                                              _mm512_loadu_ps(b + i)));
    if (i < n) {
      const __mmask16 m = TailMask(n - i);
      _mm512_mask_storeu_ps(out + i, m,
                            _mm512_sub_ps(_mm512_maskz_loadu_ps(m, a + i),
                                          _mm512_maskz_loadu_ps(m, b + i)));
    }
  }
  static inline void BinMul(const float* a, const float* b, float* out,
                            int64_t n) {
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
      _mm512_storeu_ps(out + i, _mm512_mul_ps(_mm512_loadu_ps(a + i),
                                              _mm512_loadu_ps(b + i)));
    if (i < n) {
      const __mmask16 m = TailMask(n - i);
      _mm512_mask_storeu_ps(out + i, m,
                            _mm512_mul_ps(_mm512_maskz_loadu_ps(m, a + i),
                                          _mm512_maskz_loadu_ps(m, b + i)));
    }
  }
  static inline void Relu(const float* a, float* out, int64_t n) {
    // max(x, +0) with x first: NaN and -0 lanes come out +0, matching the
    // scalar `x > 0 ? x : 0` reference.
    const __m512 zero = _mm512_setzero_ps();
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
      _mm512_storeu_ps(out + i, _mm512_maskz_max_ps(
                                    0xFFFF, _mm512_loadu_ps(a + i), zero));
    if (i < n) {
      const __mmask16 m = TailMask(n - i);
      _mm512_mask_storeu_ps(
          out + i, m,
          _mm512_maskz_max_ps(m, _mm512_maskz_loadu_ps(m, a + i), zero));
    }
  }
  static inline float Dot(const float* a, const float* b, int64_t n) {
    __m512 acc = _mm512_setzero_ps();
    int64_t i = 0;
    for (; i + 16 <= n; i += 16) acc = Fma(acc, Load(a + i), Load(b + i));
    if (i < n) {
      const Tail t = TailMask(n - i);
      acc = Fma(acc, LoadTail(a + i, t), LoadTail(b + i, t));
    }
    // Fixed reduction tree of full-width shuffles: 256-bit halves, 128-bit
    // quarters, pairs, neighbours. Zero-masking forms with a full mask, as
    // in the ReLUs (`_mm512_reduce_add_ps` has the undefined pass-through).
    constexpr __mmask16 kAll = 0xFFFF;
    acc = _mm512_add_ps(acc, _mm512_maskz_shuffle_f32x4(kAll, acc, acc, 0x4E));
    acc = _mm512_add_ps(acc, _mm512_maskz_shuffle_f32x4(kAll, acc, acc, 0xB1));
    acc = _mm512_add_ps(acc, _mm512_maskz_permute_ps(kAll, acc, 0x4E));
    acc = _mm512_add_ps(acc, _mm512_maskz_permute_ps(kAll, acc, 0xB1));
    return _mm512_cvtss_f32(acc);
  }
};

using Ops = OpsAvx512;
constexpr bool kCompiled = true;

#else  // !SES_KERNELS_AVX512_COMPILED

using Ops = OpsScalar;
constexpr bool kCompiled = false;

#endif  // SES_KERNELS_AVX512_COMPILED

void AxpyRow(float* dst, const float* src, int64_t n, float a) {
  Ops::Axpy(dst, src, n, a);
}
void AddRow(float* dst, const float* src, int64_t n) { Ops::Add(dst, src, n); }
void VecAdd(const float* a, const float* b, float* out, int64_t n) {
  VecAddImpl<Ops>(a, b, out, n);
}
void VecSub(const float* a, const float* b, float* out, int64_t n) {
  VecSubImpl<Ops>(a, b, out, n);
}
void VecMul(const float* a, const float* b, float* out, int64_t n) {
  VecMulImpl<Ops>(a, b, out, n);
}
void VecRelu(const float* a, float* out, int64_t n) {
  VecReluImpl<Ops>(a, out, n);
}
void MatMul(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  MatMulImpl<Ops>(a, b, c, m, k, n);
}
void GatherRows(const float* a, int64_t cols, const int64_t* index, int64_t n,
                float* out) {
  GatherRowsImpl(a, cols, index, n, out);
}
void SpmmCsr(int64_t rows, const int64_t* row_ptr, const int64_t* col,
             const int32_t* perm, const float* w, const float* x, int64_t f,
             float* out, const float* bias, bool relu) {
  SpmmCsrImpl<Ops>(rows, row_ptr, col, perm, w, x, f, out, bias, relu);
}
void EdgeDot(int64_t n_edges, const int64_t* src, const int64_t* dst,
             const float* x, const float* y, int64_t f, float* out) {
  EdgeDotImpl<Ops>(n_edges, src, dst, x, y, f, out);
}

}  // namespace

const Dispatch kDispatchAvx512 = {
    SimdTier::kAvx512,
    "avx512",
    kCompiled,
    "dense_avx512",
    "unary_avx512",
    "binary_avx512",
    "rows_avx512",
    "csr_avx512",
    &AxpyRow,
    &AddRow,
    &VecAdd,
    &VecSub,
    &VecMul,
    &VecRelu,
    &MatMul,
    &GatherRows,
    &SpmmCsr,
    &EdgeDot,
};

}  // namespace ses::kernels::detail
