#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <tuple>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "autograd/sparse_ops.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace ag = ses::autograd;
namespace t = ses::tensor;

namespace {

ag::Variable Param(int64_t r, int64_t c, ses::util::Rng* rng) {
  return ag::Variable::Parameter(t::Tensor::Randn(r, c, rng));
}

TEST(AutogradTest, MatMulValue) {
  auto a = ag::Variable::Constant({{1, 2}, {3, 4}});
  auto b = ag::Variable::Constant({{5, 6}, {7, 8}});
  auto c = ag::MatMul(a, b);
  EXPECT_FLOAT_EQ(c.value().At(0, 0), 19);
  EXPECT_FLOAT_EQ(c.value().At(0, 1), 22);
  EXPECT_FLOAT_EQ(c.value().At(1, 0), 43);
  EXPECT_FLOAT_EQ(c.value().At(1, 1), 50);
}

TEST(AutogradTest, MatMulGradient) {
  ses::util::Rng rng(1);
  auto a = Param(3, 4, &rng);
  auto b = Param(4, 2, &rng);
  auto result = ag::CheckGradients(
      [&] { return ag::MeanAll(ag::MatMul(a, b)); }, {a, b});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(AutogradTest, ChainedElementwiseGradient) {
  ses::util::Rng rng(2);
  auto a = Param(4, 3, &rng);
  auto b = Param(4, 3, &rng);
  auto result = ag::CheckGradients(
      [&] {
        auto h = ag::Mul(ag::Sigmoid(a), ag::Tanh(b));
        h = ag::Add(h, ag::Scale(ag::Sub(a, b), 0.5f));
        return ag::MeanAll(ag::Mul(h, h));
      },
      {a, b});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(AutogradTest, ActivationGradients) {
  ses::util::Rng rng(3);
  auto a = Param(5, 4, &rng);
  for (auto make : {
           +[](const ag::Variable& x) { return ag::Relu(x); },
           +[](const ag::Variable& x) { return ag::LeakyRelu(x, 0.2f); },
           +[](const ag::Variable& x) { return ag::Elu(x); },
           +[](const ag::Variable& x) { return ag::Exp(x); },
           +[](const ag::Variable& x) { return ag::Sigmoid(x); },
           +[](const ag::Variable& x) { return ag::Tanh(x); },
       }) {
    auto result = ag::CheckGradients(
        [&] { return ag::MeanAll(make(a)); }, {a});
    EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
  }
}

TEST(AutogradTest, LogSoftmaxGradient) {
  ses::util::Rng rng(4);
  auto a = Param(6, 5, &rng);
  std::vector<int64_t> labels{0, 1, 2, 3, 4, 0};
  std::vector<int64_t> idx{0, 2, 3, 5};
  auto result = ag::CheckGradients(
      [&] { return ag::NllLoss(ag::LogSoftmaxRows(a), labels, idx); }, {a});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(AutogradTest, SoftmaxRowsGradient) {
  ses::util::Rng rng(5);
  auto a = Param(4, 6, &rng);
  auto w = Param(6, 1, &rng);
  auto result = ag::CheckGradients(
      [&] { return ag::MeanAll(ag::MatMul(ag::SoftmaxRows(a), w)); }, {a, w});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(AutogradTest, GatherConcatSliceGradient) {
  ses::util::Rng rng(6);
  auto a = Param(5, 3, &rng);
  auto b = Param(5, 2, &rng);
  std::vector<int64_t> idx{4, 0, 2, 2, 1};
  auto result = ag::CheckGradients(
      [&] {
        auto g = ag::GatherRows(a, idx);
        auto c = ag::ConcatCols(g, b);
        auto s = ag::SliceRows(c, 1, 4);
        return ag::MeanAll(ag::Mul(s, s));
      },
      {a, b});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(AutogradTest, ReductionGradients) {
  ses::util::Rng rng(7);
  auto a = Param(4, 5, &rng);
  auto result = ag::CheckGradients(
      [&] {
        auto rows = ag::SumRows(a);
        auto cols = ag::SumCols(a);
        return ag::Add(ag::MeanAll(ag::Mul(rows, rows)),
                       ag::MeanAll(ag::Mul(cols, cols)));
      },
      {a});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(AutogradTest, TripletLossGradient) {
  // Node 0 is an anchor twice and a negative once; node 5 plays all roles.
  ses::util::Rng rng(8);
  auto z = Param(8, 4, &rng);
  auto triplets = std::make_shared<ag::Triplets>();
  triplets->anchor = {0, 1, 2, 0, 5, 7};
  triplets->positive = {3, 4, 5, 6, 1, 2};
  triplets->negative = {6, 7, 0, 4, 5, 1};
  auto result = ag::CheckGradients(
      [&] { return ag::TripletLoss(z, triplets, 1.0f); }, {z});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(AutogradTest, L1LossGradient) {
  ses::util::Rng rng(9);
  auto a = Param(5, 3, &rng);
  t::Tensor target = t::Tensor::Randn(5, 3, &rng);
  auto result =
      ag::CheckGradients([&] { return ag::L1Loss(a, target); }, {a});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(AutogradTest, SpMMGradient) {
  ses::util::Rng rng(10);
  auto edges = std::make_shared<ag::EdgeList>();
  edges->num_nodes = 4;
  edges->src = {0, 1, 2, 3, 0, 2};
  edges->dst = {1, 0, 3, 2, 2, 0};
  auto w = Param(6, 1, &rng);
  auto x = Param(4, 3, &rng);
  ag::EdgeListPtr ep = edges;
  auto result = ag::CheckGradients(
      [&] { return ag::MeanAll(ag::SpMM(ep, w, x)); }, {w, x});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(AutogradTest, SpMMValueMatchesDense) {
  ses::util::Rng rng(11);
  auto edges = std::make_shared<ag::EdgeList>();
  edges->num_nodes = 3;
  edges->src = {0, 1, 2, 1};
  edges->dst = {1, 2, 0, 0};
  t::Tensor wt = t::Tensor::Randn(4, 1, &rng);
  t::Tensor xt = t::Tensor::Randn(3, 2, &rng);
  auto y = ag::SpMM(edges, ag::Variable::Constant(wt), ag::Variable::Constant(xt));
  // Dense reference: A[dst, src] = w.
  t::Tensor dense(3, 3);
  for (int e = 0; e < 4; ++e) dense.At(edges->dst[e], edges->src[e]) += wt[e];
  t::Tensor ref = t::MatMul(dense, xt);
  EXPECT_LT(y.value().MaxAbsDiff(ref), 1e-6f);
}

TEST(AutogradTest, EdgeSoftmaxGradient) {
  ses::util::Rng rng(12);
  auto edges = std::make_shared<ag::EdgeList>();
  edges->num_nodes = 3;
  edges->src = {0, 1, 2, 1, 0, 2};
  edges->dst = {1, 1, 1, 0, 0, 2};
  auto s = Param(6, 1, &rng);
  auto x = Param(3, 2, &rng);
  ag::EdgeListPtr ep = edges;
  auto result = ag::CheckGradients(
      [&] {
        auto alpha = ag::EdgeSoftmax(ep, s);
        return ag::MeanAll(ag::SpMM(ep, alpha, x));
      },
      {s, x});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(AutogradTest, EdgeSoftmaxSumsToOnePerDestination) {
  ses::util::Rng rng(13);
  auto edges = std::make_shared<ag::EdgeList>();
  edges->num_nodes = 4;
  edges->src = {0, 1, 2, 3, 0, 1, 2};
  edges->dst = {1, 1, 1, 2, 2, 3, 3};
  auto s = Param(7, 1, &rng);
  auto alpha = ag::EdgeSoftmax(edges, s);
  std::vector<double> sums(4, 0.0);
  for (int e = 0; e < 7; ++e) sums[edges->dst[e]] += alpha.value()[e];
  EXPECT_NEAR(sums[1], 1.0, 1e-5);
  EXPECT_NEAR(sums[2], 1.0, 1e-5);
  EXPECT_NEAR(sums[3], 1.0, 1e-5);
  EXPECT_NEAR(sums[0], 0.0, 1e-9);  // no incoming edges
}

TEST(AutogradTest, SparseMaskedLinearGradient) {
  ses::util::Rng rng(14);
  t::Tensor dense(4, 5);
  dense.At(0, 1) = 1.0f;
  dense.At(0, 3) = 2.0f;
  dense.At(1, 0) = -1.0f;
  dense.At(2, 2) = 0.5f;
  dense.At(3, 4) = 1.5f;
  dense.At(3, 0) = -0.5f;
  auto sp = std::make_shared<t::SparseMatrix>(t::SparseMatrix::FromDense(dense));
  auto mask = Param(sp->nnz(), 1, &rng);
  auto w = Param(5, 3, &rng);
  auto result = ag::CheckGradients(
      [&] { return ag::MeanAll(ag::SparseMaskedLinear(sp, mask, w)); },
      {mask, w});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(AutogradTest, SparseMaskedLinearMatchesDense) {
  ses::util::Rng rng(15);
  t::Tensor dense = t::Tensor::Randn(6, 4, &rng);
  // Zero half the entries.
  for (int64_t i = 0; i < dense.size(); i += 2) dense[i] = 0.0f;
  auto sp = std::make_shared<t::SparseMatrix>(t::SparseMatrix::FromDense(dense));
  t::Tensor wt = t::Tensor::Randn(4, 3, &rng);
  auto y = ag::SparseMaskedLinear(sp, {}, ag::Variable::Constant(wt));
  t::Tensor ref = t::MatMul(dense, wt);
  EXPECT_LT(y.value().MaxAbsDiff(ref), 1e-5f);
}

TEST(AutogradTest, FeatureMaskAtNnzGradient) {
  ses::util::Rng rng(16);
  t::Tensor dense(3, 4);
  dense.At(0, 0) = 1.0f;
  dense.At(0, 2) = 1.0f;
  dense.At(1, 1) = 1.0f;
  dense.At(2, 3) = 1.0f;
  dense.At(2, 0) = 1.0f;
  auto sp = std::make_shared<t::SparseMatrix>(t::SparseMatrix::FromDense(dense));
  auto h = Param(3, 5, &rng);
  auto w2 = Param(5, 4, &rng);
  auto b2 = Param(1, 4, &rng);
  auto result = ag::CheckGradients(
      [&] {
        auto m = ag::FeatureMaskAtNnz(h, w2, b2, sp);
        return ag::MeanAll(ag::Mul(m, m));
      },
      {h, w2, b2});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(AutogradTest, GradientAccumulatesWhenVariableReused) {
  auto a = ag::Variable::Parameter(t::Tensor{{2.0f}});
  auto y = ag::Mul(a, a);  // y = a^2, dy/da = 2a = 4
  ag::Backward(ag::SumAll(y));
  EXPECT_FLOAT_EQ(a.grad()[0], 4.0f);
}

TEST(AutogradTest, TransposeGradient) {
  ses::util::Rng rng(17);
  auto a = Param(3, 4, &rng);
  auto result = ag::CheckGradients(
      [&] {
        auto at = ag::Transpose(a);
        return ag::MeanAll(ag::MatMul(a, at));
      },
      {a});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(AutogradTest, DropoutIdentityInEval) {
  ses::util::Rng rng(18);
  auto a = Param(4, 4, &rng);
  auto y = ag::Dropout(a, 0.5f, /*training=*/false, &rng);
  EXPECT_LT(y.value().MaxAbsDiff(a.value()), 1e-9f);
}

TEST(AutogradTest, DropoutPreservesScaleInExpectation) {
  ses::util::Rng rng(19);
  auto a = ag::Variable::Parameter(t::Tensor::Ones(200, 200));
  auto y = ag::Dropout(a, 0.3f, /*training=*/true, &rng);
  EXPECT_NEAR(y.value().Mean(), 1.0f, 0.02f);
}

TEST(AutogradTest, DropoutMaskIsTheBranchingMaskBitwise) {
  // The mask is the coin flip times 1/keep: the same draws, and the same
  // bits as `Bernoulli(keep) ? 1/keep : 0`.
  const float p = 0.3f;
  const float keep = 1.0f - p;
  ses::util::Rng rng(20), ref_rng(20);
  auto ones = ag::Variable::Constant(t::Tensor::Ones(37, 29));
  const t::Tensor y = ag::Dropout(ones, p, /*training=*/true, &rng).value();
  int64_t dropped = 0;
  for (int64_t i = 0; i < y.size(); ++i) {
    const float want = ref_rng.Bernoulli(keep) ? 1.0f / keep : 0.0f;
    dropped += want == 0.0f;
    ASSERT_EQ(std::memcmp(y.data() + i, &want, sizeof(float)), 0) << "element " << i;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(rng.NextU64(), ref_rng.NextU64()) << "the streams diverged";
}

}  // namespace

// --- ops added for the mask generator ---------------------------------------

// (appended suite: gradients/values of Pow and ScaleBy, used by the
// similarity scorer and the weighted-degree renormalization)
#include "autograd/ops.h"

namespace {

TEST(AutogradExtraTest, PowValuesAndGradient) {
  ses::util::Rng rng(30);
  // Positive inputs (the library uses Pow on degrees/norms, always > 0).
  auto a = ag::Variable::Parameter(t::Tensor::Uniform(4, 3, 0.5f, 2.0f, &rng));
  for (float p : {-1.0f, -0.5f, 0.5f, 2.0f}) {
    auto result = ag::CheckGradients(
        [&] { return ag::MeanAll(ag::Pow(a, p)); }, {a});
    EXPECT_TRUE(result.ok) << "p=" << p << " rel err " << result.max_rel_error;
  }
  auto y = ag::Pow(a, -1.0f);
  for (int64_t i = 0; i < y.value().size(); ++i)
    EXPECT_NEAR(y.value()[i] * a.value()[i], 1.0f, 1e-5f);
}

TEST(AutogradExtraTest, ScaleByGradientToBothInputs) {
  ses::util::Rng rng(31);
  auto a = ag::Variable::Parameter(t::Tensor::Randn(3, 4, &rng));
  auto s = ag::Variable::Parameter(t::Tensor{{1.7f}});
  auto result = ag::CheckGradients(
      [&] { return ag::MeanAll(ag::Mul(ag::ScaleBy(a, s), a)); }, {a, s});
  EXPECT_TRUE(result.ok) << result.max_rel_error;
}

TEST(AutogradExtraTest, CosineSimilarityPipelineGradient) {
  // The structure scorer's full chain: project, normalize, gather, dot.
  ses::util::Rng rng(32);
  auto h = ag::Variable::Parameter(t::Tensor::Randn(5, 4, &rng));
  auto w = ag::Variable::Parameter(t::Tensor::Randn(4, 4, &rng));
  std::vector<int64_t> src{0, 1, 2, 3}, dst{1, 2, 3, 4};
  auto result = ag::CheckGradients(
      [&] {
        auto hp = ag::MatMul(h, w);
        auto norms = ag::Sqrt(ag::AddScalar(ag::SumRows(ag::Mul(hp, hp)), 1e-9f));
        auto hi = ag::GatherRows(hp, src);
        auto hj = ag::GatherRows(hp, dst);
        auto dots = ag::SumRows(ag::Mul(hi, hj));
        auto denom = ag::Mul(ag::GatherRows(norms, src),
                             ag::GatherRows(norms, dst));
        auto cosine = ag::Mul(dots, ag::Pow(denom, -1.0f));
        return ag::MeanAll(ag::Sigmoid(cosine));
      },
      {h, w}, /*epsilon=*/1e-2f, /*tolerance=*/5e-2f);
  EXPECT_TRUE(result.ok) << result.max_rel_error;
}

TEST(AutogradExtraTest, CosineBoundedMinusOneToOne) {
  ses::util::Rng rng(33);
  auto h = ag::Variable::Constant(t::Tensor::Randn(20, 6, &rng));
  std::vector<int64_t> src, dst;
  for (int64_t i = 0; i < 19; ++i) {
    src.push_back(i);
    dst.push_back(i + 1);
  }
  auto norms = ag::Sqrt(ag::AddScalar(ag::SumRows(ag::Mul(h, h)), 1e-9f));
  auto dots = ag::SumRows(
      ag::Mul(ag::GatherRows(h, src), ag::GatherRows(h, dst)));
  auto denom = ag::Mul(ag::GatherRows(norms, src), ag::GatherRows(norms, dst));
  auto cosine = ag::Mul(dots, ag::Pow(denom, -1.0f));
  EXPECT_GE(cosine.value().Min(), -1.0f - 1e-4f);
  EXPECT_LE(cosine.value().Max(), 1.0f + 1e-4f);
}

}  // namespace

// --- fused pair scorer --------------------------------------------------------

#include <stdexcept>

namespace {

ag::EdgeListPtr MakePairs(int64_t num_nodes, std::vector<int64_t> src,
                          std::vector<int64_t> dst) {
  auto pairs = std::make_shared<ag::EdgeList>();
  pairs->src = std::move(src);
  pairs->dst = std::move(dst);
  pairs->num_nodes = num_nodes;
  return pairs;
}

bool BitwiseEqual(const t::Tensor& a, const t::Tensor& b) {
  return a.SameShape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0);
}

TEST(PairCosineMaskTest, GradientMatchesFiniteDifferences) {
  // A self pair (2, 2), a duplicate pair (0, 1) and both orders of (1, 2).
  ses::util::Rng rng(46);
  auto h = Param(5, 4, &rng);
  auto gain = ag::Variable::Parameter(t::Tensor::Full(1, 1, 1.5f));
  auto bias = ag::Variable::Parameter(t::Tensor::Full(1, 1, -0.2f));
  auto w = ag::Variable::Constant(t::Tensor::Randn(8, 1, &rng));
  auto pairs =
      MakePairs(5, {0, 1, 2, 3, 4, 2, 0, 2}, {1, 2, 3, 4, 0, 2, 1, 1});
  auto result = ag::CheckGradients(
      [&] {
        return ag::MeanAll(ag::Mul(ag::PairCosineMask(h, pairs, gain, bias), w));
      },
      {h, gain, bias});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

TEST(PairCosineMaskTest, OutOfRangeIndexThrows) {
  auto h = ag::Variable::Constant(t::Tensor(3, 2));
  auto gain = ag::Variable::Constant(t::Tensor::Ones(1, 1));
  auto bias = ag::Variable::Constant(t::Tensor(1, 1));
  EXPECT_THROW(ag::PairCosineMask(h, MakePairs(3, {0, 3}, {1, 1}), gain, bias),
               std::logic_error);
  EXPECT_THROW(
      ag::PairCosineMask(h, MakePairs(3, {0, 1}, {1, -1}), gain, bias),
      std::logic_error);
  EXPECT_THROW(ag::PairCosineMask(h, MakePairs(3, {0, 1}, {1}), gain, bias),
               std::logic_error);
  EXPECT_THROW(ag::PairCosineMask(h, MakePairs(3, {0}, {1}), gain,
                                  ag::Variable::Constant(t::Tensor(1, 2))),
               std::logic_error);
}

TEST(PairCosineMaskTest, InferenceGuardRecordsNoTape) {
  ses::util::Rng rng(47);
  auto h = Param(6, 4, &rng);
  auto gain = ag::Variable::Parameter(t::Tensor::Full(1, 1, 2.0f));
  auto bias = ag::Variable::Parameter(t::Tensor::Zeros(1, 1));
  auto pairs = MakePairs(6, {0, 1, 5}, {2, 1, 3});
  const t::Tensor taped = ag::PairCosineMask(h, pairs, gain, bias).value();
  ag::InferenceGuard no_grad;
  const uint64_t before = ag::TapeNodesCreated();
  auto y = ag::PairCosineMask(h, pairs, gain, bias);
  EXPECT_EQ(ag::TapeNodesCreated(), before);
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(BitwiseEqual(y.value(), taped));
}

TEST(PairCosineMaskTest, BackwardBuildsEachViewOnce) {
  // The backward's two SpMMs run over the pair list's memoized views: a
  // second backward reuses them and leaves the same gradient again.
  ses::util::Rng rng(48);
  auto h = Param(6, 5, &rng);
  auto gain = ag::Variable::Parameter(t::Tensor::Full(1, 1, 2.0f));
  auto bias = ag::Variable::Parameter(t::Tensor::Zeros(1, 1));
  auto pairs = MakePairs(6, {0, 0, 1, 3, 5}, {2, 4, 1, 0, 3});
  ag::Backward(ag::SumAll(ag::PairCosineMask(h, pairs, gain, bias)));
  const t::Tensor first = h.grad();
  const auto plan = pairs->plan();
  const auto transposed = pairs->transposed_plan();
  h.ZeroGrad();
  ag::Backward(ag::SumAll(ag::PairCosineMask(h, pairs, gain, bias)));
  EXPECT_EQ(pairs->plan().get(), plan.get());
  EXPECT_EQ(pairs->transposed_plan().get(), transposed.get());
  EXPECT_TRUE(BitwiseEqual(h.grad(), first));
}

// ---------------------------------------------------------------------------
// The training backward's rebuilt paths: the transposed MatMuls, the
// one-pass element-wise gradients and Pow's exact exponents.

TEST(BackwardPathTest, MatMulGradientOnRaggedShapesWithZeroHeavyA) {
  // m % 4 != 0 leaves a partial row tile, n = 17 and 5 leave ragged lanes at
  // every tier, and every other A entry is zero (the zero-skip path).
  ses::util::Rng rng(50);
  for (const auto& [m, k, n] : {std::tuple<int, int, int>{7, 9, 17},
                                std::tuple<int, int, int>{5, 6, 5}}) {
    t::Tensor at = t::Tensor::Randn(m, k, &rng);
    for (int64_t e = 0; e < at.size(); e += 2) at[e] = 0.0f;
    auto a = ag::Variable::Parameter(at);
    auto b = Param(k, n, &rng);
    auto result = ag::CheckGradients(
        [&] { return ag::MeanAll(ag::Sigmoid(ag::MatMul(a, b))); },
        {a, b});
    EXPECT_TRUE(result.ok) << m << "x" << k << "x" << n << " rel err "
                           << result.max_rel_error;
  }
}

TEST(BackwardPathTest, MulGradientOnDistinctAndSharedOperands) {
  ses::util::Rng rng(51);
  auto a = Param(6, 5, &rng);
  auto b = Param(6, 5, &rng);
  auto distinct = ag::CheckGradients(
      [&] { return ag::MeanAll(ag::Sigmoid(ag::Mul(a, b))); }, {a, b});
  EXPECT_TRUE(distinct.ok) << "rel err " << distinct.max_rel_error;
  auto shared = ag::CheckGradients(
      [&] { return ag::MeanAll(ag::Mul(ag::Mul(a, a), b)); }, {a, b});
  EXPECT_TRUE(shared.ok) << "rel err " << shared.max_rel_error;
}

TEST(BackwardPathTest, PowGradientAndValuesAtTheExponentsInUse) {
  ses::util::Rng rng(52);
  auto a = ag::Variable::Parameter(t::Tensor::Uniform(5, 4, 0.3f, 3.0f, &rng));
  for (const float p : {-1.0f, -0.5f, 1.5f}) {
    auto result = ag::CheckGradients(
        [&] { return ag::MeanAll(ag::Sigmoid(ag::Pow(a, p))); }, {a});
    EXPECT_TRUE(result.ok) << "p=" << p << " rel err " << result.max_rel_error;
  }
  // -1 and -0.5 are one division and one square root, exactly.
  const t::Tensor inv = ag::Pow(a, -1.0f).value();
  const t::Tensor rsqrt = ag::Pow(a, -0.5f).value();
  for (int64_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(inv[i], 1.0f / a.value()[i]);
    EXPECT_EQ(rsqrt[i], 1.0f / std::sqrt(a.value()[i]));
  }
}

}  // namespace

// --- fused loss ops -----------------------------------------------------------

#include "loss_chains.h"

namespace {

std::shared_ptr<const ag::Triplets> MakeTriplets(
    std::vector<int64_t> anchor, std::vector<int64_t> positive,
    std::vector<int64_t> negative) {
  auto triplets = std::make_shared<ag::Triplets>();
  triplets->anchor = std::move(anchor);
  triplets->positive = std::move(positive);
  triplets->negative = std::move(negative);
  return triplets;
}

TEST(TripletLossTest, MatchesTheChain) {
  // Anchor 0 three times, a duplicate triplet (0, 1, 2), node 4 as both
  // positive and negative of anchor 3 (equal distances: at margin 0 the
  // hinge is exactly 0), anchor == positive for node 6 (a zero distance),
  // and, at the two lower margins, inactive hinges.
  ses::util::Rng rng(60);
  const t::Tensor zv = t::Tensor::Randn(7, 5, &rng);
  const auto triplets = MakeTriplets({0, 0, 3, 2, 5, 0, 6, 1},
                                     {1, 1, 4, 4, 6, 2, 6, 2},
                                     {2, 2, 4, 0, 1, 4, 0, 3});
  for (const float margin : {0.0f, 0.5f, 4.0f}) {
    SCOPED_TRACE("margin " + std::to_string(margin));
    auto z = ag::Variable::Parameter(zv);
    auto z_ref = ag::Variable::Parameter(zv);
    const ag::Variable out = ag::TripletLoss(z, triplets, margin);
    const ag::Variable ref = ses::test::ChainTripletLoss(z_ref, *triplets,
                                                         margin);
    EXPECT_NEAR(out.value()[0], ref.value()[0], 1e-6);
    ag::Backward(out);
    ag::Backward(ref);
    EXPECT_LE(ses::test::MaxDiffOverScale(z.grad(), z_ref.grad()), 1e-5);

    // The cases the triplets are meant to cover do occur.
    const ag::Variable zc = ag::Variable::Constant(zv);
    const ag::Variable a = ag::GatherRows(zc, triplets->anchor);
    const t::Tensor hinge =
        ag::AddScalar(
            ag::Sub(ses::test::ChainRowDistance(
                        a, ag::GatherRows(zc, triplets->positive)),
                    ses::test::ChainRowDistance(
                        a, ag::GatherRows(zc, triplets->negative))),
            margin)
            .value();
    int active = 0, zero = 0;
    for (int64_t j = 0; j < hinge.size(); ++j) {
      active += hinge[j] > 0.0f;
      zero += hinge[j] == 0.0f;
    }
    EXPECT_GT(active, 0);
    if (margin == 0.0f) {
      EXPECT_EQ(zero, 1);
    }
    if (margin < 1.0f) {
      EXPECT_LT(active, hinge.size());
    }
  }
}

TEST(TripletLossTest, OutOfRangeIndexThrows) {
  auto z = ag::Variable::Constant(t::Tensor(4, 2));
  EXPECT_THROW(ag::TripletLoss(z, MakeTriplets({0, 4}, {1, 1}, {2, 2}), 1.0f),
               std::logic_error);
  EXPECT_THROW(
      ag::TripletLoss(z, MakeTriplets({0, 1}, {1, -1}, {2, 2}), 1.0f),
      std::logic_error);
  EXPECT_THROW(ag::TripletLoss(z, MakeTriplets({0, 1}, {1, 1}, {2, 9}), 1.0f),
               std::logic_error);
  EXPECT_THROW(ag::TripletLoss(z, MakeTriplets({0, 1}, {1}, {2, 2}), 1.0f),
               std::logic_error);
  EXPECT_THROW(ag::TripletLoss(z, nullptr, 1.0f), std::logic_error);
}

TEST(TripletLossTest, EmptyListThrows) {
  // A mean over no triplets is undefined; callers skip the loss instead.
  auto z = ag::Variable::Parameter(t::Tensor::Ones(3, 2));
  EXPECT_THROW(ag::TripletLoss(z, MakeTriplets({}, {}, {}), 1.0f),
               std::logic_error);
}

TEST(FusedLossTest, InferenceGuardRecordsNoTape) {
  ses::util::Rng rng(61);
  auto z = Param(5, 3, &rng);
  auto m = ag::Variable::Parameter(t::Tensor::Uniform(6, 1, 0.1f, 0.9f, &rng));
  const auto triplets = MakeTriplets({0, 1, 2}, {3, 4, 0}, {4, 2, 1});
  const t::Tensor taped_loss = ag::TripletLoss(z, triplets, 1.0f).value();
  const t::Tensor taped_reg = ag::MaskRegularizer(m, 0.1f, 0.05f).value();
  ag::InferenceGuard no_grad;
  const uint64_t before = ag::TapeNodesCreated();
  auto loss = ag::TripletLoss(z, triplets, 1.0f);
  auto reg = ag::MaskRegularizer(m, 0.1f, 0.05f);
  EXPECT_EQ(ag::TapeNodesCreated(), before);
  EXPECT_FALSE(loss.requires_grad());
  EXPECT_FALSE(reg.requires_grad());
  EXPECT_TRUE(BitwiseEqual(loss.value(), taped_loss));
  EXPECT_TRUE(BitwiseEqual(reg.value(), taped_reg));
}

TEST(MaskRegularizerTest, MatchesTheChain) {
  // Scores at both poles, under the log clamp and about 1/2, then random.
  ses::util::Rng rng(62);
  t::Tensor mv = t::Tensor::Uniform(40, 1, 0.0f, 1.0f, &rng);
  mv[0] = 0.0f;
  mv[1] = 1.0f;
  mv[2] = 1e-13f;
  mv[3] = 1.0f - 1e-7f;
  mv[4] = 0.5f;
  for (const auto& [size_w, entropy_w] :
       {std::pair{0.1f, 0.05f}, std::pair{0.3f, 0.0f},
        std::pair{0.0f, 0.2f}}) {
    SCOPED_TRACE("weights " + std::to_string(size_w) + " " +
                 std::to_string(entropy_w));
    auto m = ag::Variable::Parameter(mv);
    auto m_ref = ag::Variable::Parameter(mv);
    const ag::Variable out = ag::MaskRegularizer(m, size_w, entropy_w);
    const ag::Variable ref =
        ses::test::ChainMaskRegularizer(m_ref, size_w, entropy_w);
    EXPECT_NEAR(out.value()[0], ref.value()[0], 1e-6);
    ag::Backward(out);
    ag::Backward(ref);
    EXPECT_LE(ses::test::MaxDiffOverScale(m.grad(), m_ref.grad()), 1e-5);
  }
}

TEST(MaskRegularizerTest, GradientMatchesFiniteDifferences) {
  ses::util::Rng rng(63);
  auto logits = Param(12, 1, &rng);
  auto result = ag::CheckGradients(
      [&] { return ag::MaskRegularizer(ag::Sigmoid(logits), 0.3f, 0.2f); },
      {logits});
  EXPECT_TRUE(result.ok) << "rel err " << result.max_rel_error;
}

}  // namespace
