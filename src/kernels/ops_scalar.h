#ifndef SES_KERNELS_OPS_SCALAR_H_
#define SES_KERNELS_OPS_SCALAR_H_

/// Internal: the scalar tier's `Ops` (see kernel_impl.h for the contract).
///
/// Included by kernels_scalar.cc, and by a SIMD TU only when the compiler
/// lacks that tier's flags (the TU then aliases scalar code and reports the
/// tier unsupported). It must only ever be compiled with the default target
/// flags: every multiply-add here is a separate multiply and add, never an
/// FMA. The unnamed namespace keeps each including TU's copy private.

#include <cstdint>
#include <cstring>

namespace ses::kernels::detail {
namespace {

struct OpsScalar {
  static inline void Axpy(float* dst, const float* src, int64_t n, float a) {
    for (int64_t i = 0; i < n; ++i) dst[i] += a * src[i];
  }
  static inline void Add(float* dst, const float* src, int64_t n) {
    for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
  }
  static inline void BinAdd(const float* a, const float* b, float* out,
                            int64_t n) {
    for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
  }
  static inline void BinSub(const float* a, const float* b, float* out,
                            int64_t n) {
    for (int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
  }
  static inline void BinMul(const float* a, const float* b, float* out,
                            int64_t n) {
    for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
  }
  static inline void Relu(const float* a, float* out, int64_t n) {
    for (int64_t i = 0; i < n; ++i) out[i] = a[i] > 0.0f ? a[i] : 0.0f;
  }
  static inline float Dot(const float* a, const float* b, int64_t n) {
    float acc = 0.0f;
    for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
    return acc;
  }

  // Register-tile primitives. A Vec is four floats in a GCC vector type:
  // element-wise IEEE multiply and add, exactly the scalar operations, in
  // registers (SSE2 on x86-64, which every x86-64 target has).
  static constexpr int64_t kLanes = 4;
  static constexpr int kSpmmVecs = 8;
  static constexpr int kMatMulVecs = 2;
  typedef float Vec __attribute__((vector_size(16)));
  using Bcast = Vec;
  using Tail = int64_t;  // live lanes

  static inline Tail TailMask(int64_t n) { return n; }
  static inline Vec Load(const float* p) {
    Vec r;
    std::memcpy(&r, p, sizeof(r));
    return r;
  }
  // Lane by lane (n >= 1), not a loop the compiler turns into a memcpy call.
  static inline Vec LoadTail(const float* p, Tail n) {
    return Vec{p[0], n > 1 ? p[1] : 0.0f, n > 2 ? p[2] : 0.0f,
               n > 3 ? p[3] : 0.0f};
  }
  static inline void Store(float* p, Vec x) { std::memcpy(p, &x, sizeof(x)); }
  static inline void StoreTail(float* p, Vec x, Tail n) {
    p[0] = x[0];
    if (n > 1) p[1] = x[1];
    if (n > 2) p[2] = x[2];
    if (n > 3) p[3] = x[3];
  }
  static inline Bcast Set1(float a) { return Vec{a, a, a, a}; }
  static inline Vec Fma(Vec c, Bcast a, Vec b) { return c + a * b; }
  static inline Vec FmaIfNonzero(Vec c, Bcast a, Vec b) {
    const Vec zero = {};
    return a != zero ? c + a * b : c;
  }
  static inline Vec AddV(Vec a, Vec b) { return a + b; }
  static inline Vec ReluV(Vec x) {
    const Vec zero = {};
    return x > zero ? x : zero;
  }
};

}  // namespace
}  // namespace ses::kernels::detail

#endif  // SES_KERNELS_OPS_SCALAR_H_
