#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "omp_team.h"

namespace t = ses::tensor;

namespace {

TEST(TensorTest, ConstructionAndAccess) {
  t::Tensor a(2, 3);
  EXPECT_EQ(a.rows(), 2);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.size(), 6);
  EXPECT_FLOAT_EQ(a.At(1, 2), 0.0f);
  a.At(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(a[5], 5.0f);
}

TEST(TensorTest, InitializerList) {
  t::Tensor a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(a.rows(), 2);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_FLOAT_EQ(a.At(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(a.At(1, 0), 4.0f);
}

TEST(TensorTest, Factories) {
  EXPECT_FLOAT_EQ(t::Tensor::Ones(3, 3).Sum(), 9.0f);
  EXPECT_FLOAT_EQ(t::Tensor::Full(2, 2, 2.5f).Mean(), 2.5f);
  t::Tensor eye = t::Tensor::Eye(4);
  EXPECT_FLOAT_EQ(eye.Sum(), 4.0f);
  EXPECT_FLOAT_EQ(eye.At(2, 2), 1.0f);
  EXPECT_FLOAT_EQ(eye.At(2, 3), 0.0f);
}

TEST(TensorTest, RandnStatistics) {
  ses::util::Rng rng(5);
  t::Tensor a = t::Tensor::Randn(200, 200, &rng);
  EXPECT_NEAR(a.Mean(), 0.0f, 0.02f);
  const float var = t::Mul(a, a).Mean() - a.Mean() * a.Mean();
  EXPECT_NEAR(var, 1.0f, 0.05f);
}

TEST(TensorTest, XavierBounds) {
  ses::util::Rng rng(6);
  t::Tensor w = t::Tensor::Xavier(64, 32, &rng);
  const float bound = std::sqrt(6.0f / (64 + 32));
  EXPECT_LE(w.Max(), bound);
  EXPECT_GE(w.Min(), -bound);
}

TEST(TensorTest, Reshape) {
  t::Tensor a = t::Tensor::Ones(2, 6);
  a.Reshape(3, 4);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 4);
  EXPECT_THROW(a.Reshape(5, 5), std::logic_error);
}

TEST(TensorTest, InPlaceOps) {
  t::Tensor a = t::Tensor::Ones(2, 2);
  t::Tensor b = t::Tensor::Full(2, 2, 3.0f);
  a.AddInPlace(b);
  EXPECT_FLOAT_EQ(a.At(0, 0), 4.0f);
  a.AddScaled(b, -1.0f);
  EXPECT_FLOAT_EQ(a.At(1, 1), 1.0f);
  a.ScaleInPlace(0.5f);
  EXPECT_FLOAT_EQ(a.At(0, 1), 0.5f);
}

TEST(TensorTest, Summaries) {
  t::Tensor a{{-1, 2}, {3, -4}};
  EXPECT_FLOAT_EQ(a.Sum(), 0.0f);
  EXPECT_FLOAT_EQ(a.Min(), -4.0f);
  EXPECT_FLOAT_EQ(a.Max(), 3.0f);
  EXPECT_FLOAT_EQ(a.Norm(), std::sqrt(30.0f));
}

// --- matmul identities, parameterized over shapes ---------------------------

class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, TransposedVariantsAgree) {
  const ses::test::ScopedOmpTeam team(4);
  auto [m, k, n] = GetParam();
  ses::util::Rng rng(m * 100 + k * 10 + n);
  t::Tensor a = t::Tensor::Randn(m, k, &rng);
  t::Tensor b = t::Tensor::Randn(k, n, &rng);
  t::Tensor c = t::MatMul(a, b);
  // A^T路B via MatMulTransposedA(A stored transposed)
  t::Tensor at = t::Transpose(a);
  t::Tensor c2 = t::MatMulTransposedA(at, b);
  EXPECT_LT(c.MaxAbsDiff(c2), 1e-4f);
  t::Tensor bt = t::Transpose(b);
  t::Tensor c3 = t::MatMulTransposedB(a, bt);
  EXPECT_LT(c.MaxAbsDiff(c3), 1e-4f);
}

TEST_P(MatMulShapeTest, IdentityIsNeutral) {
  const ses::test::ScopedOmpTeam team(4);
  auto [m, k, n] = GetParam();
  (void)n;
  ses::util::Rng rng(7);
  t::Tensor a = t::Tensor::Randn(m, k, &rng);
  EXPECT_LT(t::MatMul(a, t::Tensor::Eye(k)).MaxAbsDiff(a), 1e-6f);
  EXPECT_LT(t::MatMul(t::Tensor::Eye(m), a).MaxAbsDiff(a), 1e-6f);
}

TEST_P(MatMulShapeTest, TransposedVariantsAreBitwiseTransposeThenMatMul) {
  const ses::test::ScopedOmpTeam team(4);
  // The transposed products pack the transposed operand and run MatMul's
  // kernel, so at the active tier they equal MatMul of the explicit
  // transpose exactly, zero-skips included.
  auto [m, k, n] = GetParam();
  ses::util::Rng rng(m * 7 + k * 3 + n);
  t::Tensor a = t::Tensor::Randn(k, m, &rng);
  t::Tensor b = t::Tensor::Randn(k, n, &rng);
  for (int64_t e = 0; e < a.size(); e += 3) a[e] = 0.0f;
  const t::Tensor at = t::MatMulTransposedA(a, b);
  const t::Tensor at_ref = t::MatMul(t::Transpose(a), b);
  ASSERT_TRUE(at.SameShape(at_ref));
  EXPECT_EQ(std::memcmp(at.data(), at_ref.data(), at.size() * sizeof(float)),
            0);
  const t::Tensor lhs = t::Transpose(a);
  const t::Tensor bt = t::MatMulTransposedB(lhs, t::Transpose(b));
  const t::Tensor bt_ref = t::MatMul(lhs, b);
  ASSERT_TRUE(bt.SameShape(bt_ref));
  EXPECT_EQ(std::memcmp(bt.data(), bt_ref.data(), bt.size() * sizeof(float)),
            0);
}

TEST(TensorOpsTest, TransposeRoundTripsAcrossTileEdges) {
  ses::util::Rng rng(15);
  const t::Tensor a = t::Tensor::Randn(70, 33, &rng);
  const t::Tensor at = t::Transpose(a);
  ASSERT_EQ(at.rows(), 33);
  ASSERT_EQ(at.cols(), 70);
  for (int64_t r = 0; r < a.rows(); ++r)
    for (int64_t c = 0; c < a.cols(); ++c) EXPECT_EQ(at.At(c, r), a.At(r, c));
}

TEST(TensorOpsTest, ScatterAddRowsOneColumnAccumulatesDuplicates) {
  const t::Tensor a{{1.0f}, {2.0f}, {4.0f}, {8.0f}};
  t::Tensor out{{0.5f}, {0.0f}, {0.0f}};
  t::ScatterAddRows(a, {2, 0, 2, 2}, &out);
  EXPECT_EQ(out[0], 2.5f);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 13.0f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulShapeTest,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(3, 4, 5),
                                           std::make_tuple(8, 2, 8),
                                           std::make_tuple(16, 33, 7),
                                           std::make_tuple(64, 64, 64),
                                           std::make_tuple(7, 19, 17)));

TEST(TensorOpsTest, SigmoidIsTheTwoExpFormulaBitwise) {
  // One exp(-|z|) for both sides gives the bits of the branching form with
  // an exp in each arm, at zeros and at tiny and huge magnitudes; NaN stays
  // NaN (its sign bit may differ).
  std::vector<float> z = {0.0f, -0.0f, 1e-30f, -1e-30f, 88.0f, -88.0f,
                          -104.0f, 1e30f, -1e30f, std::nanf("")};
  ses::util::Rng rng(3);
  for (int i = 0; i < 2000; ++i)
    z.push_back(static_cast<float>(rng.Normal(0.0, 8.0)));
  t::Tensor x(static_cast<int64_t>(z.size()), 1);
  for (size_t i = 0; i < z.size(); ++i) x[static_cast<int64_t>(i)] = z[i];
  const t::Tensor y = t::Sigmoid(x);
  for (size_t i = 0; i < z.size(); ++i) {
    const float v = z[i];
    const float want = v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                                 : std::exp(v) / (1.0f + std::exp(v));
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(y[static_cast<int64_t>(i)]));
      continue;
    }
    EXPECT_EQ(std::memcmp(y.data() + i, &want, sizeof(float)), 0)
        << "z=" << v;
  }
}

TEST(TensorOpsTest, SoftmaxRowsSumToOne) {
  ses::util::Rng rng(9);
  t::Tensor a = t::Tensor::Randn(10, 7, &rng);
  t::Tensor s = t::SoftmaxRows(a);
  for (int64_t r = 0; r < s.rows(); ++r) {
    double total = 0.0;
    for (int64_t c = 0; c < s.cols(); ++c) {
      total += s.At(r, c);
      EXPECT_GE(s.At(r, c), 0.0f);
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(TensorOpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  ses::util::Rng rng(10);
  t::Tensor a = t::Tensor::Randn(6, 5, &rng);
  t::Tensor ls = t::LogSoftmaxRows(a);
  t::Tensor ref = t::Log(t::SoftmaxRows(a));
  EXPECT_LT(ls.MaxAbsDiff(ref), 1e-5f);
}

TEST(TensorOpsTest, SoftmaxNumericallyStableAtLargeInputs) {
  t::Tensor a{{1000.0f, 1000.0f, -1000.0f}};
  t::Tensor s = t::SoftmaxRows(a);
  EXPECT_NEAR(s.At(0, 0), 0.5f, 1e-5f);
  EXPECT_NEAR(s.At(0, 2), 0.0f, 1e-6f);
  EXPECT_FALSE(std::isnan(s.Sum()));
}

TEST(TensorOpsTest, ReductionsAndArgmax) {
  t::Tensor a{{1, 5, 2}, {7, 0, 3}};
  t::Tensor rows = t::SumRows(a);
  EXPECT_FLOAT_EQ(rows[0], 8.0f);
  EXPECT_FLOAT_EQ(rows[1], 10.0f);
  t::Tensor cols = t::SumCols(a);
  EXPECT_FLOAT_EQ(cols[0], 8.0f);
  EXPECT_FLOAT_EQ(cols[1], 5.0f);
  auto arg = t::ArgmaxRows(a);
  EXPECT_EQ(arg[0], 1);
  EXPECT_EQ(arg[1], 0);
}

TEST(TensorOpsTest, GatherScatterRoundTrip) {
  ses::util::Rng rng(11);
  t::Tensor a = t::Tensor::Randn(5, 3, &rng);
  std::vector<int64_t> idx{4, 3, 2, 1, 0};
  t::Tensor g = t::GatherRows(a, idx);
  t::Tensor back(5, 3);
  t::ScatterAddRows(g, idx, &back);
  EXPECT_LT(back.MaxAbsDiff(a), 1e-6f);
}

TEST(TensorOpsTest, ConcatAndSlice) {
  t::Tensor a{{1, 2}, {3, 4}};
  t::Tensor b{{5}, {6}};
  t::Tensor cc = t::ConcatCols(a, b);
  EXPECT_EQ(cc.cols(), 3);
  EXPECT_FLOAT_EQ(cc.At(1, 2), 6.0f);
  t::Tensor cr = t::ConcatRows(a, a);
  EXPECT_EQ(cr.rows(), 4);
  t::Tensor s = t::SliceRows(cr, 1, 3);
  EXPECT_FLOAT_EQ(s.At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(s.At(1, 1), 2.0f);
}

TEST(TensorOpsTest, PairwiseDistancesMatchBruteForce) {
  ses::util::Rng rng(12);
  t::Tensor a = t::Tensor::Randn(8, 4, &rng);
  t::Tensor d2 = t::PairwiseSquaredDistances(a);
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 8; ++j) {
      double ref = 0.0;
      for (int64_t c = 0; c < 4; ++c) {
        const double d = a.At(i, c) - a.At(j, c);
        ref += d * d;
      }
      EXPECT_NEAR(d2.At(i, j), ref, 1e-3);
    }
  }
}

TEST(TensorOpsTest, NormalizeRowsUnitNorm) {
  ses::util::Rng rng(13);
  t::Tensor a = t::Tensor::Randn(6, 5, &rng);
  t::Tensor n = t::NormalizeRows(a);
  for (int64_t r = 0; r < n.rows(); ++r) {
    double norm = 0.0;
    for (int64_t c = 0; c < n.cols(); ++c) norm += n.At(r, c) * n.At(r, c);
    EXPECT_NEAR(norm, 1.0, 1e-4);
  }
}

TEST(TensorOpsTest, ActivationRanges) {
  ses::util::Rng rng(14);
  t::Tensor a = t::Tensor::Randn(10, 10, &rng);
  t::Tensor s = t::Sigmoid(a);
  EXPECT_GT(s.Min(), 0.0f);
  EXPECT_LT(s.Max(), 1.0f);
  EXPECT_GE(t::Relu(a).Min(), 0.0f);
  t::Tensor th = t::Tanh(a);
  EXPECT_GE(th.Min(), -1.0f);
  EXPECT_LE(th.Max(), 1.0f);
  EXPECT_GT(t::Elu(a).Min(), -1.0f);
}

// --- sparse -----------------------------------------------------------------

TEST(SparseTest, DenseRoundTrip) {
  ses::util::Rng rng(15);
  t::Tensor dense = t::Tensor::Randn(7, 9, &rng);
  for (int64_t i = 0; i < dense.size(); i += 3) dense[i] = 0.0f;
  t::SparseMatrix sm = t::SparseMatrix::FromDense(dense);
  EXPECT_LT(sm.ToDense().MaxAbsDiff(dense), 1e-7f);
}

TEST(SparseTest, MatMulMatchesDense) {
  ses::util::Rng rng(16);
  t::Tensor dense = t::Tensor::Randn(6, 8, &rng);
  for (int64_t i = 1; i < dense.size(); i += 2) dense[i] = 0.0f;
  t::SparseMatrix sm = t::SparseMatrix::FromDense(dense);
  t::Tensor b = t::Tensor::Randn(8, 4, &rng);
  EXPECT_LT(sm.MatMul(b).MaxAbsDiff(t::MatMul(dense, b)), 1e-5f);
}

TEST(SparseTest, Identity) {
  t::SparseMatrix eye = t::SparseMatrix::Identity(5);
  EXPECT_EQ(eye.nnz(), 5);
  EXPECT_LT(eye.ToDense().MaxAbsDiff(t::Tensor::Eye(5)), 1e-9f);
}

TEST(SparseTest, SliceAndGatherRows) {
  t::Tensor dense{{1, 0, 2}, {0, 3, 0}, {4, 0, 0}, {0, 0, 5}};
  t::SparseMatrix sm = t::SparseMatrix::FromDense(dense);
  t::SparseMatrix sliced = sm.SliceRows(1, 3);
  EXPECT_EQ(sliced.rows, 2);
  EXPECT_FLOAT_EQ(sliced.ToDense().At(0, 1), 3.0f);
  t::SparseMatrix gathered = sm.GatherRows({3, 0});
  EXPECT_FLOAT_EQ(gathered.ToDense().At(0, 2), 5.0f);
  EXPECT_FLOAT_EQ(gathered.ToDense().At(1, 0), 1.0f);
}

}  // namespace
