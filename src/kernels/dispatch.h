#ifndef SES_KERNELS_DISPATCH_H_
#define SES_KERNELS_DISPATCH_H_

#include <cstdint>

namespace ses::kernels {

/// ---------------------------------------------------------------------------
/// Runtime SIMD dispatch.
///
/// Every hot kernel (SpMM, dense MatMul microkernel, row gather/scatter-add,
/// element-wise chains) exists in up to three implementations — a scalar
/// reference plus AVX2 and AVX-512 translation units compiled with their own
/// -m flags — reachable through one `Dispatch` table per tier. The tier is
/// picked once per process from CPUID (best supported wins) and can be forced
/// with SES_KERNEL_VARIANT=scalar|avx2|avx512 for debugging and CI parity
/// runs; forcing an unsupported tier logs a warning and falls back to the
/// best supported one rather than faulting.
///
/// Numerics policy: the scalar table reproduces the historical loops
/// bit-for-bit (no FMA contraction — the TU is compiled with the default
/// target flags). SIMD tiers use FMA and vector max for ReLU; they are
/// tolerance-gated against scalar, never bitwise. Within one tier, every
/// call site (taped training, taped eval, InferenceGuard serving) reaches
/// the same function pointers, so cross-path outputs stay bitwise identical.

enum class SimdTier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};
inline constexpr int kNumSimdTiers = 3;

/// Static-storage tier name ("scalar" / "avx2" / "avx512").
const char* TierName(SimdTier tier);

/// True when `tier` is both compiled in and supported by the running CPU.
bool TierSupported(SimdTier tier);

/// Highest tier the running CPU supports.
SimdTier BestSupportedTier();

/// Process-wide active tier: SES_KERNEL_VARIANT override when valid and
/// supported, BestSupportedTier() otherwise. Resolved once, then a cached
/// load.
SimdTier ActiveTier();

/// Drops the cached ActiveTier decision so the next call re-reads the
/// environment (test support).
void ResetActiveTierForTest();

/// ---------------------------------------------------------------------------
/// OpenMP cutover.
///
/// Minimum scalar work (flops for matmuls/SpMM, elements for element-wise
/// loops) before a kernel forks an OpenMP team. Below this the fork/join
/// overhead dominates — per-node motif subgraphs are a few dozen rows. Every
/// parallel kernel, dense AND sparse, guards its `parallel for` with
/// ShouldParallelize on this one constant; SpMM historically threaded over
/// rows unconditionally, which lost on tiny explain-path subgraphs.
inline constexpr int64_t kOmpWorkThreshold = 1 << 16;

inline bool ShouldParallelize(double work) {
  return work > static_cast<double>(kOmpWorkThreshold);
}

/// ---------------------------------------------------------------------------
/// Per-tier kernel entry points.
///
/// All pointers take raw row-major buffers (row stride == the column count)
/// so the table stays free of tensor-layer types. Output buffers follow the
/// accumulate convention of the historical kernels: callers pass
/// zero-initialized memory unless noted.
struct Dispatch {
  SimdTier tier;
  const char* tier_name;
  /// False when this translation unit was built without its SIMD flags
  /// (compiler too old); the table then aliases scalar code and the tier
  /// reports unsupported.
  bool compiled;

  /// KernelScope variant labels (static storage) for tier-variant kernels.
  const char* matmul_variant;   ///< "dense_scalar" / "dense_avx2" / ...
  const char* unary_variant;    ///< dispatched element-wise unary chains
  const char* binary_variant;   ///< dispatched element-wise binary chains
  const char* scatter_variant;  ///< scatter-add rows
  const char* spmm_variant;     ///< "csr_scalar" / "csr_avx2" / ...

  /// dst[0..n) += a * src[0..n)
  void (*axpy_row)(float* dst, const float* src, int64_t n, float a);
  /// dst[0..n) += src[0..n)
  void (*add_row)(float* dst, const float* src, int64_t n);
  void (*vec_add)(const float* a, const float* b, float* out, int64_t n);
  void (*vec_sub)(const float* a, const float* b, float* out, int64_t n);
  void (*vec_mul)(const float* a, const float* b, float* out, int64_t n);
  /// out[i] = max(a[i], 0) — NaN and -0 map to +0, matching the scalar
  /// `x > 0 ? x : 0` reference exactly.
  void (*vec_relu)(const float* a, float* out, int64_t n);
  /// C(m x n) += A(m x k) * B(k x n). Register-tiled (4 rows x a tier-wide
  /// column block of C held in registers across k); per element the sum
  /// runs over k in order and skips A entries equal to zero, so NaN/Inf in
  /// a B row behind a zero A entry never reaches C. OpenMP over row blocks
  /// behind ShouldParallelize(2mkn).
  void (*matmul)(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n);
  /// out[i, :] = a[index[i], :]; pure data movement (row memcpy is already
  /// optimal on every tier — single variant, routed here for uniformity).
  void (*gather_rows)(const float* a, int64_t cols, const int64_t* index,
                      int64_t n, float* out);
  /// The one sparse aggregation kernel: CSR-by-destination SpMM with
  /// optional fused epilogue (bias may be null, relu optional). It
  /// overwrites `out`: each row starts from +0, not from out's contents
  /// (PairCosineMask's backward runs two views into one buffer). Entry e's
  /// weight is w[perm[e]] when `perm` is non-null (adjacency CSR permuted
  /// from an edge list) and w[e] otherwise (value CSR, e.g. feature
  /// matrices, or an edge list already grouped by destination). Each
  /// output row is accumulated in registers, up to 64 columns per pass,
  /// one multiply-add per entry in CSR order (zero weights skipped, so NaN
  /// rows behind a zeroed mask never propagate); with entries kept in edge
  /// order (stable sort) that is edge order. OpenMP over rows behind
  /// ShouldParallelize(2·nnz·f).
  void (*spmm_csr)(int64_t rows, const int64_t* row_ptr, const int64_t* col,
                   const int32_t* perm, const float* w, const float* x,
                   int64_t f, float* out, const float* bias, bool relu);
  /// out[e] += x[src[e], :] · y[dst[e], :] for every e in [0, n_edges)
  /// (SDDMM over an edge list; x and y have f columns). Each edge's dot is
  /// a float sum: in column order at the scalar tier, in tier-wide lanes
  /// then a fixed reduction tree at SIMD tiers. OpenMP over edges behind
  /// ShouldParallelize(2·n_edges·f); no edge's sum depends on the thread
  /// count.
  void (*edge_dot)(int64_t n_edges, const int64_t* src, const int64_t* dst,
                   const float* x, const float* y, int64_t f, float* out);
};

/// Table for one specific tier (bench sweeps, parity tests). Asking for an
/// uncompiled tier returns a table whose pointers alias scalar code; check
/// TierSupported() first when the distinction matters.
const Dispatch& DispatchFor(SimdTier tier);

/// Table for ActiveTier() — the single entry point the tensor/autograd hot
/// paths call through.
const Dispatch& GetDispatch();

}  // namespace ses::kernels

#endif  // SES_KERNELS_DISPATCH_H_
