/// AVX2 + FMA tier. This TU (alone) is compiled with -mavx2 -mfma; runtime
/// CPUID dispatch guarantees its code only executes on CPUs that support
/// both. Every multiply-add is one FMA, ragged tails included (masked
/// 8-lane loads and stores). FMA changes rounding versus the scalar mul+add
/// reference, so this tier is tolerance-gated, never bitwise, against
/// scalar.

#include "kernels/kernel_impl.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define SES_KERNELS_AVX2_COMPILED 1
#else
#include "kernels/ops_scalar.h"
#endif

namespace ses::kernels::detail {
namespace {

#ifdef SES_KERNELS_AVX2_COMPILED

struct OpsAvx2 {
  // Register-tile primitives (see kernel_impl.h).
  static constexpr int64_t kLanes = 8;
  static constexpr int kSpmmVecs = 8;
  static constexpr int kMatMulVecs = 2;
  using Vec = __m256;
  using Bcast = __m256;
  using Tail = __m256i;  // all-ones in the live lanes

  static inline Tail TailMask(int64_t n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static inline Vec Load(const float* p) { return _mm256_loadu_ps(p); }
  static inline Vec LoadTail(const float* p, Tail t) {
    return _mm256_maskload_ps(p, t);
  }
  static inline void Store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static inline void StoreTail(float* p, Vec v, Tail t) {
    _mm256_maskstore_ps(p, t, v);
  }
  static inline Bcast Set1(float a) { return _mm256_set1_ps(a); }
  static inline Vec Fma(Vec c, Bcast a, Vec b) {
    return _mm256_fmadd_ps(a, b, c);
  }
  static inline Vec FmaIfNonzero(Vec c, Bcast a, Vec b) {
    // Unordered-or-unequal: a NaN `a` is not skipped, like `a == 0` false.
    const __m256 nz = _mm256_cmp_ps(a, _mm256_setzero_ps(), _CMP_NEQ_UQ);
    return _mm256_blendv_ps(c, _mm256_fmadd_ps(a, b, c), nz);
  }
  static inline Vec AddV(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  static inline Vec ReluV(Vec v) {
    return _mm256_max_ps(v, _mm256_setzero_ps());
  }

  static inline void Axpy(float* dst, const float* src, int64_t n, float a) {
    const __m256 va = _mm256_set1_ps(a);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
      Store(dst + i, Fma(Load(dst + i), va, Load(src + i)));
    if (i < n) {
      const Tail t = TailMask(n - i);
      StoreTail(dst + i, Fma(LoadTail(dst + i, t), va, LoadTail(src + i, t)),
                t);
    }
  }
  static inline void Add(float* dst, const float* src, int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                              _mm256_loadu_ps(src + i)));
    for (; i < n; ++i) dst[i] += src[i];
  }
  static inline void BinAdd(const float* a, const float* b, float* out,
                            int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
    for (; i < n; ++i) out[i] = a[i] + b[i];
  }
  static inline void BinSub(const float* a, const float* b, float* out,
                            int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
    for (; i < n; ++i) out[i] = a[i] - b[i];
  }
  static inline void BinMul(const float* a, const float* b, float* out,
                            int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
    for (; i < n; ++i) out[i] = a[i] * b[i];
  }
  static inline void Relu(const float* a, float* out, int64_t n) {
    // max(x, +0) with x in the FIRST operand: NaN and -0 lanes both come out
    // +0, exactly like the scalar `x > 0 ? x : 0` reference.
    const __m256 zero = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
    for (; i < n; ++i) out[i] = a[i] > 0.0f ? a[i] : 0.0f;
  }
  static inline float Dot(const float* a, const float* b, int64_t n) {
    __m256 acc = _mm256_setzero_ps();
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) acc = Fma(acc, Load(a + i), Load(b + i));
    if (i < n) {
      const Tail t = TailMask(n - i);
      acc = Fma(acc, LoadTail(a + i, t), LoadTail(b + i, t));
    }
    // Fixed reduction tree: halves, then pairs, then the last two lanes.
    __m128 s = _mm_add_ps(_mm256_castps256_ps128(acc),
                          _mm256_extractf128_ps(acc, 1));
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
  }
};

using Ops = OpsAvx2;
constexpr bool kCompiled = true;

#else  // !SES_KERNELS_AVX2_COMPILED

/// Compiler lacked AVX2/FMA flags: alias scalar arithmetic so the table
/// stays well-formed; TierSupported(kAvx2) reports false via `compiled`.
using Ops = OpsScalar;
constexpr bool kCompiled = false;

#endif  // SES_KERNELS_AVX2_COMPILED

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

const Dispatch kDispatchAvx2 = {
    SimdTier::kAvx2,
    "avx2",
    kCompiled,
    "dense_avx2",
    "unary_avx2",
    "binary_avx2",
    "rows_avx2",
    "csr_avx2",
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
