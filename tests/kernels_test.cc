// Tests for the runtime-dispatched SIMD kernel layer (src/kernels):
//  - tier dispatch + SES_KERNEL_VARIANT forcing semantics,
//  - SIMD/scalar parity sweeps across every dispatched kernel (feature
//    widths 1..333 including ragged SIMD tails, empty rows, duplicate
//    edges, denormals, NaN masking/propagation),
//  - the CSR SpMM bitwise against an edge-order reference loop at every
//    tier (separate multiply and add at scalar, std::fmaf at SIMD tiers),
//  - the register-tiled MatMul bitwise against a row-axpy reference loop
//    on each tier's own axpy_row,
//  - the fused GCN epilogue (aggregate + bias + ReLU) against the unfused
//    chain — bitwise at scalar tier, tolerance-gated at SIMD tiers,
//  - SpMMBiasAct gradients (analytic vs the unfused chain, plus numeric),
//  - the training backward's kernels at every tier: the transposed MatMuls
//    against transpose-then-MatMul, the per-edge dot against a column-order
//    loop, and the SpMM gradients (dx over the transposed CSR) against an
//    edge-order scatter,
//  - the sparse autograd ops on those kernels: PairCosineMask against the
//    autograd chain it replaced, SparseMaskedLinear and FeatureMaskAtNnz
//    bitwise against reference loops, all at every tier, and
//    finite-difference gradients on messy pair lists and patterns,
//  - per-graph plan memoization, forward and transposed, and views of
//    already-grouped edges without a permutation.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "autograd/sparse_ops.h"
#include "data/synthetic.h"
#include "kernels/dispatch.h"
#include "kernels/spmm.h"
#include "models/encoders.h"
#include "models/node_classifier.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "util/rng.h"
#include "omp_team.h"

namespace {

using namespace ses;
namespace ag = ses::autograd;
namespace t = ses::tensor;
namespace k = ses::kernels;

/// Feature widths the parity sweeps cover: scalar, sub-lane, one AVX2 lane,
/// one AVX-512 lane, lane+1 (ragged tail), a typical hidden width, and a
/// large non-multiple-of-16 width — plus the GCN encoder's class (5) and
/// hidden (32) widths on the scale graphs.
const std::vector<int64_t> kWidths = {1, 3, 5, 8, 16, 17, 32, 64, 333};

std::vector<k::SimdTier> SupportedTiers() {
  std::vector<k::SimdTier> tiers;
  for (int i = 0; i < k::kNumSimdTiers; ++i) {
    const auto tier = static_cast<k::SimdTier>(i);
    if (k::TierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// Max |a - b| with NaN-position agreement: a NaN in one buffer requires a
/// NaN at the same position in the other.
double MaxAbsDiff(const float* a, const float* b, int64_t n) {
  double m = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) {
      if (std::isnan(a[i]) != std::isnan(b[i])) return 1e30;
      continue;
    }
    m = std::max(m, static_cast<double>(std::fabs(a[i] - b[i])));
  }
  return m;
}

/// Pins SES_KERNEL_VARIANT to `value` for its lifetime, then restores the
/// previous value (or its absence) and re-resolves the active tier. A test
/// that forces a tier must not drop the pin of a pinned-tier run of this
/// suite for every test after it.
class ScopedKernelVariant {
 public:
  explicit ScopedKernelVariant(const char* value) {
    const char* prev = std::getenv("SES_KERNEL_VARIANT");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    ::setenv("SES_KERNEL_VARIANT", value, 1);
    k::ResetActiveTierForTest();
  }
  ~ScopedKernelVariant() {
    if (had_prev_)
      ::setenv("SES_KERNEL_VARIANT", prev_.c_str(), 1);
    else
      ::unsetenv("SES_KERNEL_VARIANT");
    k::ResetActiveTierForTest();
  }
  ScopedKernelVariant(const ScopedKernelVariant&) = delete;
  ScopedKernelVariant& operator=(const ScopedKernelVariant&) = delete;

 private:
  bool had_prev_ = false;
  std::string prev_;
};

bool BitwiseEqual(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

/// Relative tolerance for SIMD-vs-scalar parity: FMA contraction and
/// reassociated adds differ by a few ulps per accumulation step.
double Tolerance(int64_t reduction_len) {
  return 1e-5 * std::max<double>(1.0, std::sqrt(static_cast<double>(
                                     std::max<int64_t>(reduction_len, 1))));
}

/// A messy test graph: duplicate edges, a self loop, zero in-degree nodes
/// (empty CSR rows), one high-degree hub (skew), deterministic RNG.
struct TestGraph {
  std::vector<int64_t> src, dst;
  int64_t nodes = 0;
};

TestGraph MakeMessyGraph(int64_t nodes, int64_t edges, uint64_t seed) {
  TestGraph g;
  g.nodes = nodes;
  util::Rng rng(seed);
  for (int64_t e = 0; e < edges; ++e) {
    // Nodes 0 and 1 never receive edges -> empty rows; node 2 is a hub.
    int64_t d = 2 + static_cast<int64_t>(rng.Uniform() *
                                         static_cast<double>(nodes - 2));
    if (rng.Uniform() < 0.3) d = 2;  // hub: skewed in-degree
    const int64_t s =
        static_cast<int64_t>(rng.Uniform() * static_cast<double>(nodes));
    g.src.push_back(std::min(s, nodes - 1));
    g.dst.push_back(std::min(d, nodes - 1));
  }
  // Duplicate edge + self loop, deliberately.
  g.src.push_back(g.src[0]);
  g.dst.push_back(g.dst[0]);
  g.src.push_back(3 % nodes);
  g.dst.push_back(3 % nodes);
  return g;
}

/// Edge-order reference SpMM with optional epilogue — the ground truth
/// every tier is compared against bit for bit. `fused_multiply_add` selects
/// the SIMD tiers' rounding (std::fmaf, one rounding per step) instead of
/// the scalar tier's separate multiply and add.
void ReferenceSpmm(const TestGraph& g, const float* w, const float* x,
                   int64_t f, float* out, const float* bias, bool relu,
                   bool fused_multiply_add) {
  std::fill(out, out + g.nodes * f, 0.0f);
  for (size_t e = 0; e < g.src.size(); ++e) {
    const float we = w[e];
    if (we == 0.0f) continue;
    const float* srcp = x + g.src[e] * f;
    float* dstp = out + g.dst[e] * f;
    for (int64_t c = 0; c < f; ++c)
      dstp[c] = fused_multiply_add ? std::fmaf(we, srcp[c], dstp[c])
                                   : dstp[c] + we * srcp[c];
  }
  for (int64_t r = 0; r < g.nodes; ++r) {
    float* row = out + r * f;
    for (int64_t c = 0; c < f; ++c) {
      if (bias != nullptr) row[c] += bias[c];
      if (relu) row[c] = row[c] > 0.0f ? row[c] : 0.0f;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch basics.

TEST(DispatchTest, ScalarTierAlwaysSupportedAndActiveTierValid) {
  EXPECT_TRUE(k::TierSupported(k::SimdTier::kScalar));
  EXPECT_TRUE(k::DispatchFor(k::SimdTier::kScalar).compiled);
  const k::SimdTier active = k::ActiveTier();
  EXPECT_TRUE(k::TierSupported(active));
  EXPECT_EQ(k::GetDispatch().tier, active);
  // Best tier dominates: active is never above it.
  EXPECT_LE(static_cast<int>(active), static_cast<int>(k::BestSupportedTier()));
}

TEST(DispatchTest, ForcedVariantSelectsTierAndBadValuesFallBack) {
  // Forcing scalar always works.
  const ScopedKernelVariant pin("scalar");
  EXPECT_EQ(k::ActiveTier(), k::SimdTier::kScalar);
  // Unknown value falls back to the best supported tier (logged, not fatal).
  ::setenv("SES_KERNEL_VARIANT", "quantum", 1);
  k::ResetActiveTierForTest();
  EXPECT_EQ(k::ActiveTier(), k::BestSupportedTier());
  // Forcing an unsupported tier falls back likewise.
  if (!k::TierSupported(k::SimdTier::kAvx512)) {
    ::setenv("SES_KERNEL_VARIANT", "avx512", 1);
    k::ResetActiveTierForTest();
    EXPECT_EQ(k::ActiveTier(), k::BestSupportedTier());
  }
}

TEST(DispatchTest, VariantLabelsCarryTierSuffix) {
  for (const k::SimdTier tier : SupportedTiers()) {
    const k::Dispatch& d = k::DispatchFor(tier);
    const std::string suffix = k::TierName(tier);
    EXPECT_NE(std::string(d.matmul_variant).find(suffix), std::string::npos);
    EXPECT_NE(std::string(d.unary_variant).find(suffix), std::string::npos);
    EXPECT_NE(std::string(d.spmm_variant).find(suffix), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Element-wise / matmul parity across tiers.

TEST(KernelParityTest, ElementwiseVariantsMatchScalarAcrossWidths) {
  const k::Dispatch& ref = k::DispatchFor(k::SimdTier::kScalar);
  util::Rng rng(11);
  for (const k::SimdTier tier : SupportedTiers()) {
    const k::Dispatch& d = k::DispatchFor(tier);
    for (const int64_t n : kWidths) {
      t::Tensor a = t::Tensor::Randn(1, n, &rng);
      t::Tensor b = t::Tensor::Randn(1, n, &rng);
      a[0] = -0.0f;                       // signed zero through ReLU
      if (n > 1) a[1] = 1e-39f;           // denormal survives add/mul
      if (n > 2) b[2] = 0.0f;
      std::vector<float> got(n), want(n);
      d.vec_add(a.data(), b.data(), got.data(), n);
      ref.vec_add(a.data(), b.data(), want.data(), n);
      EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), n))
          << k::TierName(tier) << " add width " << n;
      d.vec_sub(a.data(), b.data(), got.data(), n);
      ref.vec_sub(a.data(), b.data(), want.data(), n);
      EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), n))
          << k::TierName(tier) << " sub width " << n;
      d.vec_mul(a.data(), b.data(), got.data(), n);
      ref.vec_mul(a.data(), b.data(), want.data(), n);
      EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), n))
          << k::TierName(tier) << " mul width " << n;
      d.vec_relu(a.data(), got.data(), n);
      ref.vec_relu(a.data(), want.data(), n);
      EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), n))
          << k::TierName(tier) << " relu width " << n;
    }
  }
}

TEST(KernelParityTest, ReluMapsNaNAndNegativeZeroToPositiveZero) {
  const float in[4] = {std::nanf(""), -0.0f, -1.0f, 2.5f};
  for (const k::SimdTier tier : SupportedTiers()) {
    float out[4] = {9, 9, 9, 9};
    k::DispatchFor(tier).vec_relu(in, out, 4);
    EXPECT_EQ(out[0], 0.0f) << k::TierName(tier) << ": NaN must map to 0";
    EXPECT_FALSE(std::signbit(out[0])) << k::TierName(tier);
    EXPECT_EQ(out[1], 0.0f) << k::TierName(tier);
    EXPECT_FALSE(std::signbit(out[1])) << k::TierName(tier) << ": -0 -> +0";
    EXPECT_EQ(out[2], 0.0f) << k::TierName(tier);
    EXPECT_EQ(out[3], 2.5f) << k::TierName(tier);
  }
}

TEST(KernelParityTest, MatMulVariantsMatchScalarWithinTolerance) {
  const ses::test::ScopedOmpTeam team(4);
  const k::Dispatch& ref = k::DispatchFor(k::SimdTier::kScalar);
  util::Rng rng(12);
  const int64_t m = 7, kk = 33;
  for (const k::SimdTier tier : SupportedTiers()) {
    const k::Dispatch& d = k::DispatchFor(tier);
    for (const int64_t n : kWidths) {
      t::Tensor a = t::Tensor::Randn(m, kk, &rng);
      t::Tensor b = t::Tensor::Randn(kk, n, &rng);
      a.At(2, 3) = 0.0f;  // exercise the zero-skip
      t::Tensor got = t::Tensor::Zeros(m, n), want = t::Tensor::Zeros(m, n);
      d.matmul(a.data(), b.data(), got.data(), m, kk, n);
      ref.matmul(a.data(), b.data(), want.data(), m, kk, n);
      const double tol = tier == k::SimdTier::kScalar ? 0.0 : Tolerance(kk);
      EXPECT_LE(MaxAbsDiff(got.data(), want.data(), m * n), tol)
          << k::TierName(tier) << " matmul n=" << n;
    }
  }
}

/// Reference MatMul: the i-k-j row-axpy loop on `d`'s own row primitive —
/// per element, c += a·b over k in order, skipping a == 0.
void RowAxpyMatMul(const k::Dispatch& d, const float* a, const float* b,
                   float* c, int64_t m, int64_t kk, int64_t n) {
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < kk; ++j) {
      const float av = a[i * kk + j];
      if (av == 0.0f) continue;
      d.axpy_row(c + i * n, b + j * n, n, av);
    }
}

TEST(KernelParityTest, MatMulIsBitwiseEqualToTheRowAxpyLoopAtEveryTier) {
  const ses::test::ScopedOmpTeam team(4);
  // m = 1..9 covers every remainder of the row tile; k = 32, 33 a full and
  // a ragged reduction. Zero A entries alternate +0 and -0, whole zero A
  // columns sit in front of B rows of NaN/Inf that must not leak, and C
  // starts nonzero (with some -0) because the kernel accumulates.
  util::Rng rng(13);
  const float kPoison[3] = {std::nanf(""), INFINITY, -INFINITY};
  for (const k::SimdTier tier : SupportedTiers()) {
    const k::Dispatch& d = k::DispatchFor(tier);
    for (int64_t m = 1; m <= 9; ++m) {
      for (const int64_t kk : {1, 32, 33}) {
        for (const int64_t n : kWidths) {
          t::Tensor a = t::Tensor::Randn(m, kk, &rng);
          t::Tensor b = t::Tensor::Randn(kk, n, &rng);
          t::Tensor c = t::Tensor::Randn(m, n, &rng);
          for (int64_t i = 0; i < m; ++i)
            for (int64_t j = 0; j < kk; ++j)
              if ((i + j) % 3 == 0) a.At(i, j) = (i + j) % 2 ? -0.0f : 0.0f;
          for (int64_t j = 1; j < kk; j += 4) {
            for (int64_t i = 0; i < m; ++i)
              a.At(i, j) = (i + j) % 2 ? -0.0f : 0.0f;
            for (int64_t col = 0; col < n; ++col)
              b.At(j, col) = kPoison[(j + col) % 3];
          }
          for (int64_t e = 0; e < c.size(); e += 4) c[e] = -0.0f;
          t::Tensor got = c, want = c;
          d.matmul(a.data(), b.data(), got.data(), m, kk, n);
          RowAxpyMatMul(d, a.data(), b.data(), want.data(), m, kk, n);
          EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), m * n))
              << k::TierName(tier) << " m=" << m << " k=" << kk << " n=" << n;
          for (int64_t e = 0; e < got.size(); ++e)
            ASSERT_TRUE(std::isfinite(got[e]))
                << k::TierName(tier) << " leaked NaN/Inf at " << e
                << " m=" << m << " k=" << kk << " n=" << n;
        }
      }
    }
  }
}

TEST(KernelParityTest, TransposedMatMulsEqualTransposeThenMatMulAtEveryTier) {
  const ses::test::ScopedOmpTeam team(4);
  // Ragged shapes (m % 4 != 0, widths off every lane count) and a zero-heavy
  // operand: the packed transposes must reach the tier's own MatMul kernel
  // with nothing reordered, so the results agree bit for bit.
  util::Rng rng(14);
  for (const k::SimdTier tier : SupportedTiers()) {
    const ScopedKernelVariant pin(k::TierName(tier));
    const k::Dispatch& d = k::DispatchFor(tier);
    for (const int64_t m : {1, 5, 7}) {
      for (const int64_t n : kWidths) {
        const int64_t kk = 19;
        t::Tensor a = t::Tensor::Randn(kk, m, &rng);  // A^T is m x kk
        t::Tensor b = t::Tensor::Randn(kk, n, &rng);
        for (int64_t e = 0; e < a.size(); e += 2) a[e] = 0.0f;
        t::Tensor want_at = t::Tensor::Zeros(m, n);
        d.matmul(t::Transpose(a).data(), b.data(), want_at.data(), m, kk, n);
        const t::Tensor got_at = t::MatMulTransposedA(a, b);
        EXPECT_TRUE(BitwiseEqual(got_at.data(), want_at.data(), m * n))
            << k::TierName(tier) << " at m=" << m << " n=" << n;

        const t::Tensor lhs = t::Transpose(a);       // m x kk, zero-heavy
        const t::Tensor rhs = t::Transpose(b);       // n x kk
        t::Tensor want_bt = t::Tensor::Zeros(m, n);
        d.matmul(lhs.data(), b.data(), want_bt.data(), m, kk, n);
        const t::Tensor got_bt = t::MatMulTransposedB(lhs, rhs);
        EXPECT_TRUE(BitwiseEqual(got_bt.data(), want_bt.data(), m * n))
            << k::TierName(tier) << " bt m=" << m << " n=" << n;
      }
    }
  }
}

TEST(KernelParityTest, EdgeDotMatchesColumnOrderDotAtEveryTier) {
  const ses::test::ScopedOmpTeam team(4);
  // out[e] += x[src[e]] · y[dst[e]]: bitwise the column-order float loop at
  // scalar tier, within the reduction tolerance at SIMD tiers; out starts
  // nonzero because the kernel accumulates. x and y have different row
  // counts, as in the sparse ops' node-row x feature-row products.
  const TestGraph g = MakeMessyGraph(/*nodes=*/29, /*edges=*/150, 19);
  const int64_t e = static_cast<int64_t>(g.src.size());
  const int64_t y_rows = 41;
  std::vector<int64_t> dst(g.dst.size());
  for (int64_t i = 0; i < e; ++i) dst[i] = (g.dst[i] * 7 + i) % y_rows;
  util::Rng rng(23);
  const t::Tensor init = t::Tensor::Randn(e, 1, &rng);
  for (const int64_t f : kWidths) {
    const t::Tensor x = t::Tensor::Randn(g.nodes, f, &rng);
    const t::Tensor y = t::Tensor::Randn(y_rows, f, &rng);
    t::Tensor want = init;
    for (int64_t i = 0; i < e; ++i) {
      float acc = 0.0f;
      for (int64_t c = 0; c < f; ++c)
        acc += x.At(g.src[i], c) * y.At(dst[i], c);
      want[i] += acc;
    }
    for (const k::SimdTier tier : SupportedTiers()) {
      t::Tensor got = init;
      k::DispatchFor(tier).edge_dot(e, g.src.data(), dst.data(), x.data(),
                                    y.data(), f, got.data());
      if (tier == k::SimdTier::kScalar) {
        EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), e)) << "f=" << f;
      } else {
        EXPECT_LE(MaxAbsDiff(got.data(), want.data(), e), Tolerance(f))
            << k::TierName(tier) << " f=" << f;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SpMM parity: the CSR kernel at every tier against the edge-order reference
// loop, across all widths, with empty rows / duplicates / zero weights. The
// CSR view keeps edge order per row, so each tier reproduces the loop with
// its own rounding exactly.

/// Runs the CSR SpMM of `tier` over `csr` into `out` (zero-initialized).
void RunSpmm(k::SimdTier tier, const k::CsrAdj& csr, const float* w,
             const float* x, int64_t f, float* out, const float* bias,
             bool relu) {
  k::DispatchFor(tier).spmm_csr(csr.rows, csr.row_ptr.data(), csr.col.data(),
                                csr.perm_or_null(), w, x, f, out, bias, relu);
}

class SpmmParityTest : public ::testing::Test {
 protected:
  void RunSweep(bool with_epilogue) {
    const TestGraph g = MakeMessyGraph(/*nodes=*/53, /*edges=*/400, 7);
    const int64_t e = static_cast<int64_t>(g.src.size());
    util::Rng rng(21);
    t::Tensor w = t::Tensor::Randn(e, 1, &rng);
    w[0] = 0.0f;  // masked edges
    w[1] = 0.0f;
    w[2] = 1e-39f;  // denormal weight
    const k::CsrAdj csr = k::BuildCsrByDst(g.src.data(), g.dst.data(), e,
                                           g.nodes);
    for (const int64_t f : kWidths) {
      t::Tensor x = t::Tensor::Randn(g.nodes, f, &rng);
      t::Tensor bias;
      const float* bias_ptr = nullptr;
      if (with_epilogue) {
        bias = t::Tensor::Randn(1, f, &rng);
        bias_ptr = bias.data();
      }
      for (const k::SimdTier tier : SupportedTiers()) {
        const bool fma = tier != k::SimdTier::kScalar;
        std::vector<float> want(static_cast<size_t>(g.nodes) * f);
        ReferenceSpmm(g, w.data(), x.data(), f, want.data(), bias_ptr,
                      with_epilogue, fma);
        t::Tensor got = t::Tensor::Zeros(g.nodes, f);
        RunSpmm(tier, csr, w.data(), x.data(), f, got.data(), bias_ptr,
                with_epilogue);
        EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), g.nodes * f))
            << k::DispatchFor(tier).spmm_variant << " f=" << f << " diff="
            << MaxAbsDiff(got.data(), want.data(), g.nodes * f);
        // Empty rows stay exactly zero (or epilogue-only).
        for (int64_t c = 0; c < f; ++c) {
          float expect_empty = bias_ptr != nullptr ? bias[c] : 0.0f;
          if (with_epilogue && expect_empty < 0.0f) expect_empty = 0.0f;
          EXPECT_EQ(got.At(0, c), expect_empty)
              << k::DispatchFor(tier).spmm_variant << " empty row, f=" << f;
        }
      }
    }
  }
};

TEST_F(SpmmParityTest, AllVariantsMatchReferenceAcrossWidths) {
  const ses::test::ScopedOmpTeam team(4);
  RunSweep(/*with_epilogue=*/false);
}

TEST_F(SpmmParityTest, FusedEpilogueMatchesReferenceAcrossWidths) {
  const ses::test::ScopedOmpTeam team(4);
  RunSweep(/*with_epilogue=*/true);
}

TEST(SpmmNanTest, ZeroWeightMasksNaNRowInEveryVariant) {
  // Node 4's features are NaN, but every edge sourced at node 4 has weight
  // zero — the zero-skip must keep NaN out of all outputs at every tier.
  TestGraph g;
  g.nodes = 6;
  g.src = {4, 4, 3, 5, 3};
  g.dst = {2, 3, 2, 5, 4};
  const int64_t e = static_cast<int64_t>(g.src.size());
  t::Tensor w = t::Tensor::Ones(e, 1);
  w[0] = 0.0f;
  w[1] = 0.0f;
  util::Rng rng(5);
  const k::CsrAdj csr = k::BuildCsrByDst(g.src.data(), g.dst.data(), e,
                                         g.nodes);
  for (const int64_t f : kWidths) {
    t::Tensor x = t::Tensor::Randn(g.nodes, f, &rng);
    for (int64_t c = 0; c < f; ++c) x.At(4, c) = std::nanf("");
    for (const k::SimdTier tier : SupportedTiers()) {
      t::Tensor out = t::Tensor::Zeros(g.nodes, f);
      RunSpmm(tier, csr, w.data(), x.data(), f, out.data(), nullptr, false);
      for (int64_t i = 0; i < out.size(); ++i)
        EXPECT_FALSE(std::isnan(out[i]))
            << k::DispatchFor(tier).spmm_variant << " leaked NaN at " << i
            << " f=" << f;
    }
  }
}

TEST(SpmmNanTest, NonzeroWeightPropagatesNaNInEveryVariant) {
  TestGraph g;
  g.nodes = 4;
  g.src = {1, 2};
  g.dst = {0, 3};
  t::Tensor w = t::Tensor::Ones(2, 1);
  const k::CsrAdj csr = k::BuildCsrByDst(g.src.data(), g.dst.data(), 2,
                                         g.nodes);
  for (const int64_t f : kWidths) {
    const int64_t nan_col = std::min<int64_t>(3, f - 1);
    t::Tensor x = t::Tensor::Ones(g.nodes, f);
    x.At(1, nan_col) = std::nanf("");
    for (const k::SimdTier tier : SupportedTiers()) {
      t::Tensor out = t::Tensor::Zeros(g.nodes, f);
      RunSpmm(tier, csr, w.data(), x.data(), f, out.data(), nullptr, false);
      EXPECT_TRUE(std::isnan(out.At(0, nan_col)))
          << k::DispatchFor(tier).spmm_variant << " f=" << f;
      EXPECT_FALSE(std::isnan(out.At(3, nan_col)))
          << k::DispatchFor(tier).spmm_variant << " f=" << f;
    }
  }
}

// ---------------------------------------------------------------------------
// Fused op (autograd level): forward equivalence and gradients.

TEST(SpmmBiasActTest, FusedForwardIsBitwiseEqualToUnfusedChainAtScalarTier) {
  const ScopedKernelVariant pin("scalar");
  const TestGraph g = MakeMessyGraph(40, 200, 9);
  auto edges = std::make_shared<ag::EdgeList>();
  edges->src = g.src;
  edges->dst = g.dst;
  edges->num_nodes = g.nodes;
  util::Rng rng(31);
  const int64_t f = 17;
  t::Tensor wt = t::Tensor::Randn(edges->size(), 1, &rng);
  t::Tensor xt = t::Tensor::Randn(g.nodes, f, &rng);
  t::Tensor bt = t::Tensor::Randn(1, f, &rng);
  auto w = ag::Variable::Constant(wt);
  auto x = ag::Variable::Constant(xt);
  auto b = ag::Variable::Constant(bt);
  const ag::EdgeListPtr ep = edges;
  auto fused = ag::SpMMBiasAct(ep, w, x, b, /*relu=*/true);
  auto chain = ag::Relu(ag::AddRowVector(ag::SpMM(ep, w, x), b));
  ASSERT_EQ(fused.value().size(), chain.value().size());
  EXPECT_TRUE(BitwiseEqual(fused.value().data(), chain.value().data(),
                           fused.value().size()));
  // Undefined bias + no relu degrades to plain SpMM.
  auto plain = ag::SpMMBiasAct(ep, w, x, ag::Variable(), /*relu=*/false);
  auto ref = ag::SpMM(ep, w, x);
  EXPECT_TRUE(BitwiseEqual(plain.value().data(), ref.value().data(),
                           ref.value().size()));
}

TEST(SpmmBiasActTest, FusedGradientsMatchUnfusedChain) {
  const TestGraph g = MakeMessyGraph(24, 120, 13);
  auto edges = std::make_shared<ag::EdgeList>();
  edges->src = g.src;
  edges->dst = g.dst;
  edges->num_nodes = g.nodes;
  const ag::EdgeListPtr ep = edges;
  util::Rng rng(41);
  const int64_t f = 6;
  t::Tensor wt = t::Tensor::Randn(edges->size(), 1, &rng);
  t::Tensor xt = t::Tensor::Randn(g.nodes, f, &rng);
  t::Tensor bt = t::Tensor::Randn(1, f, &rng);

  auto wf = ag::Variable::Parameter(wt);
  auto xf = ag::Variable::Parameter(xt);
  auto bf = ag::Variable::Parameter(bt);
  ag::Backward(ag::SumAll(ag::SpMMBiasAct(ep, wf, xf, bf, true)));

  auto wu = ag::Variable::Parameter(wt);
  auto xu = ag::Variable::Parameter(xt);
  auto bu = ag::Variable::Parameter(bt);
  ag::Backward(
      ag::SumAll(ag::Relu(ag::AddRowVector(ag::SpMM(ep, wu, xu), bu))));

  EXPECT_LE(MaxAbsDiff(wf.grad().data(), wu.grad().data(), wf.grad().size()),
            1e-5);
  EXPECT_LE(MaxAbsDiff(xf.grad().data(), xu.grad().data(), xf.grad().size()),
            1e-5);
  EXPECT_LE(MaxAbsDiff(bf.grad().data(), bu.grad().data(), bf.grad().size()),
            1e-5);
}

TEST(SpmmBiasActTest, NumericGradientCheck) {
  const TestGraph g = MakeMessyGraph(12, 40, 17);
  auto edges = std::make_shared<ag::EdgeList>();
  edges->src = g.src;
  edges->dst = g.dst;
  edges->num_nodes = g.nodes;
  const ag::EdgeListPtr ep = edges;
  util::Rng rng(43);
  auto w = ag::Variable::Parameter(t::Tensor::Randn(edges->size(), 1, &rng));
  auto x = ag::Variable::Parameter(t::Tensor::Randn(g.nodes, 5, &rng));
  auto b = ag::Variable::Parameter(t::Tensor::Randn(1, 5, &rng));
  // Sigmoid keeps the loss smooth through the ReLU kink region.
  auto result = ag::CheckGradients(
      [&] {
        return ag::MeanAll(ag::Sigmoid(ag::SpMMBiasAct(ep, w, x, b, true)));
      },
      {w, x, b});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

// ---------------------------------------------------------------------------
// SpMM gradients: dx = A^T g runs the CSR kernel over the transposed plan,
// dw the per-edge dot.

/// The messy graph plus one isolated node (no edge touches the last node)
/// and two zero weights, as an edge list with its weights.
struct GradGraph {
  ag::EdgeListPtr edges;
  t::Tensor w;
};

GradGraph MakeGradGraph(int64_t nodes, int64_t edges, uint64_t seed) {
  const TestGraph g = MakeMessyGraph(nodes, edges, seed);
  auto list = std::make_shared<ag::EdgeList>();
  list->src = g.src;
  list->dst = g.dst;
  list->num_nodes = g.nodes + 1;
  util::Rng rng(seed + 1);
  t::Tensor w = t::Tensor::Randn(list->size(), 1, &rng);
  w[0] = 0.0f;
  w[3] = 0.0f;
  return {list, std::move(w)};
}

TEST(SpmmGradTest, BackwardMatchesEdgeOrderReferenceAtEveryTier) {
  const ses::test::ScopedOmpTeam team(4);
  // dx row s is the sum over the edges leaving s, in edge order, from +0,
  // with the tier's rounding (separate multiply and add at scalar, fmaf at
  // SIMD tiers), zero weights skipped; it is then added to the fresh
  // gradient. dw is the per-edge dot of dispatch's edge_dot.
  const GradGraph gg = MakeGradGraph(/*nodes=*/31, /*edges=*/180, 27);
  const ag::EdgeList& el = *gg.edges;
  const int64_t n = el.num_nodes;
  util::Rng rng(29);
  for (const int64_t f : kWidths) {
    const t::Tensor xt = t::Tensor::Randn(n, f, &rng);
    const t::Tensor seed = t::Tensor::Randn(n, f, &rng);
    for (const k::SimdTier tier : SupportedTiers()) {
      const ScopedKernelVariant pin(k::TierName(tier));
      auto w = ag::Variable::Parameter(gg.w);
      auto x = ag::Variable::Parameter(xt);
      ag::Backward(ag::SpMM(gg.edges, w, x), seed);

      t::Tensor dx_sum = t::Tensor::Zeros(n, f);
      for (int64_t e = 0; e < el.size(); ++e) {
        const float we = gg.w[e];
        if (we == 0.0f) continue;
        float* row = dx_sum.RowPtr(el.src[static_cast<size_t>(e)]);
        const float* grow = seed.RowPtr(el.dst[static_cast<size_t>(e)]);
        for (int64_t c = 0; c < f; ++c)
          row[c] = tier == k::SimdTier::kScalar
                       ? row[c] + we * grow[c]
                       : std::fmaf(we, grow[c], row[c]);
      }
      t::Tensor want_dx = t::Tensor::Zeros(n, f);
      want_dx.AddInPlace(dx_sum);
      EXPECT_TRUE(BitwiseEqual(x.grad().data(), want_dx.data(), n * f))
          << k::TierName(tier) << " dx f=" << f;
      for (int64_t c = 0; c < f; ++c)
        EXPECT_EQ(x.grad().At(n - 1, c), 0.0f) << "isolated node, f=" << f;

      t::Tensor want_dw = t::Tensor::Zeros(el.size(), 1);
      k::DispatchFor(tier).edge_dot(el.size(), el.src.data(), el.dst.data(),
                                    xt.data(), seed.data(), f,
                                    want_dw.data());
      EXPECT_TRUE(BitwiseEqual(w.grad().data(), want_dw.data(), el.size()))
          << k::TierName(tier) << " dw f=" << f;
    }
  }
}

TEST(SpmmGradTest, NumericGradientsOnAMessyGraphWithZeroWeights) {
  // Isolated node, empty rows, duplicate edges, a self loop, zero weights.
  const GradGraph gg = MakeGradGraph(/*nodes=*/11, /*edges=*/36, 31);
  util::Rng rng(37);
  const int64_t n = gg.edges->num_nodes;
  auto w = ag::Variable::Parameter(gg.w);
  auto x = ag::Variable::Parameter(t::Tensor::Randn(n, 5, &rng));
  auto b = ag::Variable::Parameter(t::Tensor::Randn(1, 5, &rng));
  const auto plain = ag::CheckGradients(
      [&] { return ag::MeanAll(ag::Sigmoid(ag::SpMM(gg.edges, w, x))); },
      {w, x});
  EXPECT_TRUE(plain.ok) << "SpMM rel err " << plain.max_rel_error;
  for (const bool relu : {false, true}) {
    const auto fused = ag::CheckGradients(
        [&] {
          return ag::MeanAll(
              ag::Sigmoid(ag::SpMMBiasAct(gg.edges, w, x, b, relu)));
        },
        {w, x, b});
    EXPECT_TRUE(fused.ok) << "SpMMBiasAct relu=" << relu << " rel err "
                          << fused.max_rel_error;
  }
}

// ---------------------------------------------------------------------------
// The sparse autograd ops on the dispatched kernels: PairCosineMask
// (edge_dot forward, two CSR SpMMs over the pair list's views backward),
// SparseMaskedLinear (CSR SpMM forward and dW, edge_dot dmask) and
// FeatureMaskAtNnz (edge_dot forward, CSR SpMM gradients).

/// a + b·c with the tier's rounding: a separate multiply and add at the
/// scalar tier, one std::fmaf at SIMD tiers.
float MulAdd(k::SimdTier tier, float a, float b, float c) {
  return tier == k::SimdTier::kScalar ? a + b * c : std::fmaf(b, c, a);
}

/// A rows x cols CSR pattern (cols >= 5, coprime with 3): an empty row (2),
/// an unused column (4), rows of up to five distinct columns and every fifth
/// value stored as 0.
std::shared_ptr<const t::SparseMatrix> MakeMessyPattern(int64_t rows,
                                                        int64_t cols,
                                                        uint64_t seed) {
  auto m = std::make_shared<t::SparseMatrix>();
  m->rows = rows;
  m->cols = cols;
  m->row_ptr.push_back(0);
  util::Rng rng(seed);
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t count = r == 2 ? 0 : static_cast<int64_t>(rng.UniformInt(6));
    const int64_t start = static_cast<int64_t>(rng.UniformInt(cols));
    for (int64_t i = 0; i < count && i < cols - 1; ++i) {
      const int64_t c = (start + 3 * i) % cols;
      if (c == 4) continue;
      m->col_idx.push_back(c);
      const float v = static_cast<float>(rng.Normal());
      m->values.push_back(m->col_idx.size() % 5 == 0 ? 0.0f : v);
    }
    m->row_ptr.push_back(m->nnz());
  }
  return m;
}

/// The structure-mask chain PairCosineMask replaced, in plain autograd ops:
/// row norms, dots of the gathered rows, the cosine, gain, bias, sigmoid.
ag::Variable ChainCosineMask(const ag::Variable& hp, const ag::EdgeList& pairs,
                             const ag::Variable& gain,
                             const ag::Variable& bias) {
  const ag::Variable norms =
      ag::Sqrt(ag::AddScalar(ag::SumRows(ag::Mul(hp, hp)), 1e-9f));
  const ag::Variable dots = ag::SumRows(ag::Mul(
      ag::GatherRows(hp, pairs.src), ag::GatherRows(hp, pairs.dst)));
  const ag::Variable denom = ag::Mul(ag::GatherRows(norms, pairs.src),
                                     ag::GatherRows(norms, pairs.dst));
  const ag::Variable cosine = ag::Mul(dots, ag::Pow(denom, -1.0f));
  return ag::Sigmoid(ag::AddRowVector(ag::ScaleBy(cosine, gain), bias));
}

/// Worst |a - b| over the rows of a tensor, each relative to the row's
/// largest magnitude in b, or to 1e-4 of b's largest when that is more
/// (rows that cancel to about zero).
double MaxRelDiff(const t::Tensor& a, const t::Tensor& b) {
  double floor = 1e-30;
  for (int64_t i = 0; i < b.size(); ++i)
    floor = std::max(floor, 1e-4 * std::fabs(b[i]));
  double worst = 0.0;
  for (int64_t r = 0; r < b.rows(); ++r) {
    double scale = floor;
    for (int64_t c = 0; c < b.cols(); ++c)
      scale = std::max(scale, static_cast<double>(std::fabs(b.At(r, c))));
    worst = std::max(
        worst, MaxAbsDiff(a.RowPtr(r), b.RowPtr(r), b.cols()) / scale);
  }
  return worst;
}

TEST(SparseOpTest, PairCosineMaskMatchesTheChainAtEveryTier) {
  const ses::test::ScopedOmpTeam team(4);
  // A pair list with duplicates, a self pair and an isolated node; node 4's
  // row is all zeros (its pairs score sigmoid(bias)). The upstream gradient
  // holds two zero weights.
  const GradGraph gg = MakeGradGraph(/*nodes=*/31, /*edges=*/180, 53);
  const ag::EdgeList& pl = *gg.edges;
  const int64_t n = pl.num_nodes;
  ASSERT_GT(std::count(pl.src.begin(), pl.src.end(), 4) +
                std::count(pl.dst.begin(), pl.dst.end(), 4),
            0);
  util::Rng rng(59);
  for (const int64_t f : kWidths) {
    t::Tensor hv = t::Tensor::Randn(n, f, &rng);
    for (int64_t c = 0; c < f; ++c) hv.At(4, c) = 0.0f;
    for (const k::SimdTier tier : SupportedTiers()) {
      const ScopedKernelVariant pin(k::TierName(tier));
      const std::string at =
          std::string(k::TierName(tier)) + " f=" + std::to_string(f);
      auto h = ag::Variable::Parameter(hv);
      auto gain = ag::Variable::Parameter(t::Tensor::Full(1, 1, 2.5f));
      auto bias = ag::Variable::Parameter(t::Tensor::Full(1, 1, -0.3f));
      auto h_ref = ag::Variable::Parameter(hv);
      auto gain_ref = ag::Variable::Parameter(gain.value());
      auto bias_ref = ag::Variable::Parameter(bias.value());
      const ag::Variable out = ag::PairCosineMask(h, gg.edges, gain, bias);
      const ag::Variable ref = ChainCosineMask(h_ref, pl, gain_ref, bias_ref);
      ASSERT_TRUE(out.value().SameShape(ref.value())) << at;
      EXPECT_LE(MaxAbsDiff(out.value().data(), ref.value().data(), pl.size()),
                1e-6)
          << at;

      ag::Backward(out, gg.w);
      ag::Backward(ref, gg.w);
      EXPECT_LE(MaxRelDiff(h.grad(), h_ref.grad()), 1e-5) << at << " dh";
      EXPECT_LE(MaxRelDiff(gain.grad(), gain_ref.grad()), 1e-5) << at;
      EXPECT_LE(MaxRelDiff(bias.grad(), bias_ref.grad()), 1e-5) << at;
      for (int64_t c = 0; c < f; ++c)
        EXPECT_EQ(h.grad().At(n - 1, c), 0.0f) << at << " isolated node";
    }
  }
}

TEST(SparseOpTest, SparseMaskedLinearForwardIsTheRowLoopAtEveryTier) {
  // The reference is the op's former row loop: entry weight value ⊙ mask,
  // zero weights skipped, out[r] += v·W[col] from a zeroed row, with the
  // tier's rounding. Unmasked, the weights are the values themselves.
  const auto x = MakeMessyPattern(/*rows=*/23, /*cols=*/19, 71);
  ASSERT_GE(x->nnz(), 7);
  util::Rng rng(73);
  t::Tensor mask = t::Tensor::Uniform(x->nnz(), 1, 0.1f, 1.0f, &rng);
  mask[1] = 0.0f;
  mask[6] = 0.0f;
  for (const int64_t f : kWidths) {
    const t::Tensor wv = t::Tensor::Randn(x->cols, f, &rng);
    for (const k::SimdTier tier : SupportedTiers()) {
      const ScopedKernelVariant pin(k::TierName(tier));
      for (const bool masked : {false, true}) {
        const ag::Variable out = ag::SparseMaskedLinear(
            x, masked ? ag::Variable::Constant(mask) : ag::Variable(),
            ag::Variable::Constant(wv));
        t::Tensor want(x->rows, f);
        for (int64_t r = 0; r < x->rows; ++r) {
          float* dst = want.RowPtr(r);
          for (int64_t e = x->row_ptr[r]; e < x->row_ptr[r + 1]; ++e) {
            float v = x->values[e];
            if (masked) v *= mask[e];
            if (v == 0.0f) continue;
            const float* wrow = wv.RowPtr(x->col_idx[e]);
            for (int64_t c = 0; c < f; ++c)
              dst[c] = MulAdd(tier, dst[c], v, wrow[c]);
          }
        }
        EXPECT_TRUE(
            BitwiseEqual(out.value().data(), want.data(), x->rows * f))
            << k::TierName(tier) << " masked=" << masked << " f=" << f;
      }
    }
  }
}

TEST(SparseOpTest, FeatureMaskAtNnzForwardMatchesDotPlusBiasAtEveryTier) {
  // sigmoid(h[row] · W2[:, col] + b[col]): the dot in column order in float
  // (bitwise at scalar tier), then the bias, then the sigmoid.
  const auto pattern = MakeMessyPattern(/*rows=*/23, /*cols=*/19, 79);
  util::Rng rng(83);
  for (const int64_t hd : kWidths) {
    const t::Tensor hv = t::Tensor::Randn(pattern->rows, hd, &rng);
    const t::Tensor w2 = t::Tensor::Randn(hd, pattern->cols, &rng);
    const t::Tensor b2 = t::Tensor::Randn(1, pattern->cols, &rng);
    t::Tensor want(pattern->nnz(), 1);
    for (int64_t r = 0; r < pattern->rows; ++r) {
      for (int64_t e = pattern->row_ptr[r]; e < pattern->row_ptr[r + 1];
           ++e) {
        const int64_t j = pattern->col_idx[e];
        float acc = 0.0f;
        for (int64_t c = 0; c < hd; ++c) acc += hv.At(r, c) * w2.At(c, j);
        const float z = acc + b2[j];
        want[e] = z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                            : std::exp(z) / (1.0f + std::exp(z));
      }
    }
    for (const k::SimdTier tier : SupportedTiers()) {
      const ScopedKernelVariant pin(k::TierName(tier));
      const ag::Variable m = ag::FeatureMaskAtNnz(
          ag::Variable::Constant(hv), ag::Variable::Constant(w2),
          ag::Variable::Constant(b2), pattern);
      if (tier == k::SimdTier::kScalar) {
        EXPECT_TRUE(
            BitwiseEqual(m.value().data(), want.data(), pattern->nnz()))
            << "hd=" << hd;
      } else {
        EXPECT_LE(MaxAbsDiff(m.value().data(), want.data(), pattern->nnz()),
                  Tolerance(hd))
            << k::TierName(tier) << " hd=" << hd;
      }
    }
  }
}

TEST(SparseOpTest, GradientsMatchFiniteDifferencesAtEveryTier) {
  // A pair list with an isolated node, duplicates, a self pair and an
  // all-zero row; a pattern with an empty row, an unused column and stored zeros; a mask
  // with zeros.
  const GradGraph gg = MakeGradGraph(/*nodes=*/9, /*edges=*/24, 89);
  const auto pattern = MakeMessyPattern(/*rows=*/6, /*cols=*/7, 97);
  ASSERT_GE(pattern->nnz(), 4);
  util::Rng rng(101);
  const int64_t n = gg.edges->num_nodes;
  for (const k::SimdTier tier : SupportedTiers()) {
    const ScopedKernelVariant pin(k::TierName(tier));
    const char* name = k::TierName(tier);

    // Row 0 of the scored rows is a constant all-zero row: its pairs score
    // sigmoid(bias) whatever the other rows hold.
    auto h = ag::Variable::Parameter(t::Tensor::Randn(n - 1, 5, &rng));
    const auto zero_row = ag::Variable::Constant(t::Tensor::Zeros(1, 5));
    auto gain = ag::Variable::Parameter(t::Tensor::Full(1, 1, 2.0f));
    auto bias = ag::Variable::Parameter(t::Tensor::Full(1, 1, 0.1f));
    const auto pair_w = ag::Variable::Constant(gg.w);
    const auto pair_mask = ag::CheckGradients(
        [&] {
          return ag::MeanAll(ag::Mul(
              ag::PairCosineMask(ag::ConcatRows(zero_row, h), gg.edges, gain,
                                 bias),
              pair_w));
        },
        {h, gain, bias});
    EXPECT_TRUE(pair_mask.ok) << name << " PairCosineMask rel err "
                              << pair_mask.max_rel_error;

    t::Tensor mask_v = t::Tensor::Uniform(pattern->nnz(), 1, 0.2f, 1.0f, &rng);
    mask_v[0] = 0.0f;
    mask_v[3] = 0.0f;
    auto mask = ag::Variable::Parameter(mask_v);
    auto w = ag::Variable::Parameter(t::Tensor::Randn(pattern->cols, 4, &rng));
    const auto linear = ag::CheckGradients(
        [&] {
          return ag::MeanAll(
              ag::Sigmoid(ag::SparseMaskedLinear(pattern, mask, w)));
        },
        {mask, w});
    EXPECT_TRUE(linear.ok) << name << " SparseMaskedLinear rel err "
                           << linear.max_rel_error;
    const auto unmasked = ag::CheckGradients(
        [&] {
          return ag::MeanAll(
              ag::Sigmoid(ag::SparseMaskedLinear(pattern, {}, w)));
        },
        {w});
    EXPECT_TRUE(unmasked.ok) << name << " unmasked rel err "
                             << unmasked.max_rel_error;

    auto hf = ag::Variable::Parameter(
        t::Tensor::Randn(pattern->rows, 5, &rng));
    auto w2 = ag::Variable::Parameter(
        t::Tensor::Randn(5, pattern->cols, &rng));
    auto b2 = ag::Variable::Parameter(
        t::Tensor::Randn(1, pattern->cols, &rng));
    const auto feature = ag::CheckGradients(
        [&] {
          auto m = ag::FeatureMaskAtNnz(hf, w2, b2, pattern);
          return ag::MeanAll(ag::Mul(m, m));
        },
        {hf, w2, b2});
    EXPECT_TRUE(feature.ok) << name << " FeatureMaskAtNnz rel err "
                            << feature.max_rel_error;
  }
}

TEST(SparseOpTest, PairCosineMaskTakesAnEmptyPairListAndChecksNumNodes) {
  util::Rng rng(103);
  auto h = ag::Variable::Parameter(t::Tensor::Randn(4, 3, &rng));
  auto gain = ag::Variable::Parameter(t::Tensor::Full(1, 1, 2.0f));
  auto bias = ag::Variable::Parameter(t::Tensor::Zeros(1, 1));
  auto empty = std::make_shared<ag::EdgeList>();
  empty->num_nodes = 4;
  const ag::Variable out = ag::PairCosineMask(h, empty, gain, bias);
  EXPECT_EQ(out.value().rows(), 0);
  ag::Backward(out, t::Tensor(0, 1));
  const t::Tensor zeros = t::Tensor::Zeros(4, 3);
  EXPECT_TRUE(BitwiseEqual(h.grad().data(), zeros.data(), 12));
  EXPECT_EQ(gain.grad()[0], 0.0f);
  EXPECT_EQ(bias.grad()[0], 0.0f);

  auto mismatched = std::make_shared<ag::EdgeList>();
  mismatched->src = {0, 1};
  mismatched->dst = {1, 2};
  mismatched->num_nodes = 5;
  EXPECT_THROW(ag::PairCosineMask(h, mismatched, gain, bias),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Plan memoization.

TEST(SpmmPlanTest, EdgeListPlanMemoizesAndRebuildsOnResize) {
  auto edges = std::make_shared<ag::EdgeList>();
  edges->src = {0, 1, 2};
  edges->dst = {1, 2, 0};
  edges->num_nodes = 3;
  const auto p1 = edges->plan();
  const auto p2 = edges->plan();
  EXPECT_EQ(p1.get(), p2.get()) << "same graph must reuse the memoized plan";
  EXPECT_EQ(p1->csr.nnz(), 3);
  EXPECT_EQ(p1->csr.rows, 3);
  edges->src.push_back(3);
  edges->dst.push_back(3);
  edges->num_nodes = 4;
  const auto p3 = edges->plan();
  EXPECT_NE(p3.get(), p1.get()) << "a resized edge list must rebuild";
  EXPECT_EQ(p3->csr.nnz(), 4);
  EXPECT_EQ(p3->csr.rows, 4);
}

TEST(SpmmPlanTest, TransposedPlanMemoizesAndRebuildsOnResize) {
  auto edges = std::make_shared<ag::EdgeList>();
  edges->src = {2, 0, 2, 1, 2};
  edges->dst = {0, 1, 1, 2, 2};
  edges->num_nodes = 3;
  const auto p1 = edges->transposed_plan();
  const auto p2 = edges->transposed_plan();
  EXPECT_EQ(p1.get(), p2.get()) << "same graph must reuse the memoized plan";
  EXPECT_NE(p1.get(), edges->plan().get());
  // Rows are sources; each row lists its out-edges in edge order.
  EXPECT_EQ(p1->csr.rows, 3);
  EXPECT_EQ(p1->csr.row_ptr, (std::vector<int64_t>{0, 1, 2, 5}));
  EXPECT_EQ(p1->csr.col, (std::vector<int64_t>{1, 2, 0, 1, 2}));
  EXPECT_EQ(p1->csr.perm, (std::vector<int32_t>{1, 3, 0, 2, 4}));
  edges->src.push_back(3);
  edges->dst.push_back(0);
  edges->num_nodes = 4;
  const auto p3 = edges->transposed_plan();
  EXPECT_NE(p3.get(), p1.get()) << "a resized edge list must rebuild";
  EXPECT_EQ(p3->csr.nnz(), 6);
  EXPECT_EQ(p3->csr.rows, 4);
}

TEST(SpmmPlanTest, GroupedEdgesNeedNoPermAndMatchTheIdentityPermAtEveryTier) {
  const ses::test::ScopedOmpTeam team(4);
  // The messy graph (empty rows, a hub, a duplicate, a self loop) stably
  // sorted by dst: its view is the same CSR as the unsorted list's, with no
  // permutation, and runs bitwise like the same view with an explicit
  // identity permutation.
  const TestGraph messy = MakeMessyGraph(/*nodes=*/53, /*edges=*/400, 7);
  const int64_t e = static_cast<int64_t>(messy.src.size());
  std::vector<int64_t> order(static_cast<size_t>(e));
  for (int64_t i = 0; i < e; ++i) order[static_cast<size_t>(i)] = i;
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return messy.dst[static_cast<size_t>(a)] < messy.dst[static_cast<size_t>(b)];
  });
  TestGraph g;
  g.nodes = messy.nodes;
  for (const int64_t i : order) {
    g.src.push_back(messy.src[static_cast<size_t>(i)]);
    g.dst.push_back(messy.dst[static_cast<size_t>(i)]);
  }
  const k::CsrAdj unsorted =
      k::BuildCsrByDst(messy.src.data(), messy.dst.data(), e, messy.nodes);
  const k::CsrAdj grouped =
      k::BuildCsrByDst(g.src.data(), g.dst.data(), e, g.nodes);
  EXPECT_FALSE(unsorted.perm.empty());
  EXPECT_TRUE(grouped.perm.empty());
  EXPECT_EQ(grouped.perm_or_null(), nullptr);
  EXPECT_EQ(grouped.row_ptr, unsorted.row_ptr);
  EXPECT_EQ(grouped.col, unsorted.col);
  k::CsrAdj identity = grouped;
  for (int32_t i = 0; i < static_cast<int32_t>(e); ++i)
    identity.perm.push_back(i);
  EXPECT_THROW(k::BuildCsrByDst(g.src.data(), g.dst.data(), e, g.nodes - 1),
               std::logic_error)
      << "the range check runs on grouped input too";

  util::Rng rng(23);
  t::Tensor w = t::Tensor::Randn(e, 1, &rng);
  w[5] = 0.0f;
  for (const int64_t f : kWidths) {
    const t::Tensor x = t::Tensor::Randn(g.nodes, f, &rng);
    const t::Tensor bias = t::Tensor::Randn(1, f, &rng);
    for (const k::SimdTier tier : SupportedTiers()) {
      for (const bool epilogue : {false, true}) {
        const float* b = epilogue ? bias.data() : nullptr;
        t::Tensor got = t::Tensor::Zeros(g.nodes, f);
        t::Tensor want = t::Tensor::Zeros(g.nodes, f);
        RunSpmm(tier, grouped, w.data(), x.data(), f, got.data(), b, epilogue);
        RunSpmm(tier, identity, w.data(), x.data(), f, want.data(), b,
                epilogue);
        EXPECT_TRUE(BitwiseEqual(got.data(), want.data(), g.nodes * f))
            << k::TierName(tier) << " f=" << f << " epilogue=" << epilogue;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Backbone-level parity: scalar vs active SIMD tier on the paper's
// synthetic benchmarks, across all four encoders.

TEST(BackboneParityTest, ScalarAndSimdLogitsAgreeOnSyntheticBenchmarks) {
  if (k::BestSupportedTier() == k::SimdTier::kScalar)
    GTEST_SKIP() << "no SIMD tier on this host";
  data::SyntheticOptions opt;
  opt.scale = 0.12;
  for (const char* dataset : {"BAShapes", "Tree-Cycle"}) {
    const data::Dataset ds = data::MakeSyntheticByName(dataset, opt);
    const auto edges = ds.graph.DirectedEdges(/*add_self_loops=*/true);
    const nn::FeatureInput input = models::MakeInput(ds);
    for (const char* backbone : {"GCN", "GAT", "GIN", "SAGE"}) {
      util::Rng rng(77);
      const auto enc = models::MakeEncoder(
          backbone, ds.num_features(), 16, ds.num_classes, &rng);
      util::Rng fwd_rng(1);

      t::Tensor scalar_logits;
      {
        const ScopedKernelVariant pin("scalar");
        scalar_logits = enc->Forward(input, edges, {}, 0.0f, false, &fwd_rng)
                            .logits.value();
      }
      // The process's own tier: the best one, or the pinned one.
      const t::Tensor simd_logits =
          enc->Forward(input, edges, {}, 0.0f, false, &fwd_rng)
              .logits.value();

      ASSERT_EQ(scalar_logits.size(), simd_logits.size());
      EXPECT_LE(MaxAbsDiff(scalar_logits.data(), simd_logits.data(),
                           scalar_logits.size()),
                1e-3)
          << backbone << " on " << dataset;
    }
  }
}

}  // namespace
