#include "autograd/ops.h"

#include <cmath>

#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

/// Per-op instrumentation: SES_OP_FWD opens a span over the op's forward
/// computation; the matching "bwd:" literal passed to MakeOpNode labels the
/// span Backward() opens around the backward closure. Composite ops (Neg,
/// MeanAll, TripletLoss, ...) are covered by the primitives they expand into.
#define SES_OP_FWD(name) SES_TRACE_SPAN("fwd:" name)

namespace ses::autograd {

namespace t = ses::tensor;

namespace {

/// dst[i] += g[i] * factor(i) over the whole buffer, in one pass with no
/// temporary: the backward of every element-wise op below.
template <class Factor>
void AccumulateScaled(t::Tensor& dst, const t::Tensor& g, Factor factor) {
  SES_CHECK(dst.SameShape(g));
  const int64_t n = g.size();
  const float* pg = g.data();
  float* pd = dst.data();
  for (int64_t i = 0; i < n; ++i) pd[i] += pg[i] * factor(i);
}

/// One element-wise op as a forward / derivative pair, in the style of
/// Dali's DALI_DEFINE_UNARY_OP0(name, fwd, bwd): `y` is the forward value
/// and `dydx(x, y)` the local derivative at one element, with x read from
/// the input node and y from a copy of the output kept only when kUsesY.
/// The backward accumulates g·dydx straight into the input's gradient.
template <bool kUsesY, class Deriv>
Variable UnaryOp(const Variable& a, t::Tensor y, Deriv dydx,
                 const char* bwd_label) {
  if (!GradEnabled()) return Variable(MakeTapeFreeNode(std::move(y)));
  NodePtr pa = a.node();
  t::Tensor y_keep;
  if constexpr (kUsesY) y_keep = y;
  auto node = MakeOpNode(
      std::move(y), {pa},
      [pa, y = std::move(y_keep), dydx](const t::Tensor& g) {
        if (!pa->requires_grad) return;
        const float* px = pa->value.data();
        const float* py = y.data();
        AccumulateScaled(pa->EnsureGrad(), g, [&](int64_t i) {
          if constexpr (kUsesY) return dydx(px[i], py[i]);
          return dydx(px[i], 0.0f);
        });
      },
      bwd_label);
  return Variable(node);
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  SES_OP_FWD("MatMul");
  NodePtr pa = a.node(), pb = b.node();
  t::Tensor value = t::MatMul(pa->value, pb->value);
  auto node = MakeOpNode(std::move(value), {pa, pb},
                         [pa, pb](const t::Tensor& g) {
                           if (pa->requires_grad)
                             pa->EnsureGrad().AddInPlace(
                                 t::MatMulTransposedB(g, pb->value));
                           if (pb->requires_grad)
                             pb->EnsureGrad().AddInPlace(
                                 t::MatMulTransposedA(pa->value, g));
                         },
                         "bwd:MatMul");
  return Variable(node);
}

Variable Transpose(const Variable& a) {
  SES_OP_FWD("Transpose");
  NodePtr pa = a.node();
  auto node = MakeOpNode(t::Transpose(pa->value), {pa},
                         [pa](const t::Tensor& g) {
                           if (pa->requires_grad)
                             pa->EnsureGrad().AddInPlace(t::Transpose(g));
                         },
                         "bwd:Transpose");
  return Variable(node);
}

Variable Add(const Variable& a, const Variable& b) {
  SES_OP_FWD("Add");
  NodePtr pa = a.node(), pb = b.node();
  auto node = MakeOpNode(t::Add(pa->value, pb->value), {pa, pb},
                         [pa, pb](const t::Tensor& g) {
                           if (pa->requires_grad) pa->EnsureGrad().AddInPlace(g);
                           if (pb->requires_grad) pb->EnsureGrad().AddInPlace(g);
                         },
                         "bwd:Add");
  return Variable(node);
}

Variable Sub(const Variable& a, const Variable& b) {
  SES_OP_FWD("Sub");
  NodePtr pa = a.node(), pb = b.node();
  auto node = MakeOpNode(t::Sub(pa->value, pb->value), {pa, pb},
                         [pa, pb](const t::Tensor& g) {
                           if (pa->requires_grad) pa->EnsureGrad().AddInPlace(g);
                           if (pb->requires_grad) pb->EnsureGrad().AddScaled(g, -1.0f);
                         },
                         "bwd:Sub");
  return Variable(node);
}

Variable Mul(const Variable& a, const Variable& b) {
  SES_OP_FWD("Mul");
  NodePtr pa = a.node(), pb = b.node();
  auto node = MakeOpNode(t::Mul(pa->value, pb->value), {pa, pb},
                         [pa, pb](const t::Tensor& g) {
                           // One side after the other: for Mul(x, x)
                           // the a-side products land first.
                           if (pa->requires_grad) {
                             const float* b = pb->value.data();
                             AccumulateScaled(pa->EnsureGrad(), g,
                                              [b](int64_t i) { return b[i]; });
                           }
                           if (pb->requires_grad) {
                             const float* a = pa->value.data();
                             AccumulateScaled(pb->EnsureGrad(), g,
                                              [a](int64_t i) { return a[i]; });
                           }
                         },
                         "bwd:Mul");
  return Variable(node);
}

Variable AddRowVector(const Variable& a, const Variable& bias) {
  SES_OP_FWD("AddRowVector");
  NodePtr pa = a.node(), pb = bias.node();
  auto node = MakeOpNode(t::AddRowVector(pa->value, pb->value), {pa, pb},
                         [pa, pb](const t::Tensor& g) {
                           if (pa->requires_grad) pa->EnsureGrad().AddInPlace(g);
                           if (pb->requires_grad) {
                             t::Tensor colsum = t::SumCols(g);
                             colsum.Reshape(pb->value.rows(), pb->value.cols());
                             pb->EnsureGrad().AddInPlace(colsum);
                           }
                         },
                         "bwd:AddRowVector");
  return Variable(node);
}

Variable SubRowVector(const Variable& a, const Variable& row) {
  return AddRowVector(a, Neg(row));
}

Variable Scale(const Variable& a, float s) {
  SES_OP_FWD("Scale");
  NodePtr pa = a.node();
  auto node = MakeOpNode(t::Scale(pa->value, s), {pa},
                         [pa, s](const t::Tensor& g) {
                           if (pa->requires_grad) pa->EnsureGrad().AddScaled(g, s);
                         },
                         "bwd:Scale");
  return Variable(node);
}

Variable AddScalar(const Variable& a, float s) {
  SES_OP_FWD("AddScalar");
  NodePtr pa = a.node();
  auto node = MakeOpNode(t::AddScalar(pa->value, s), {pa},
                         [pa](const t::Tensor& g) {
                           if (pa->requires_grad) pa->EnsureGrad().AddInPlace(g);
                         },
                         "bwd:AddScalar");
  return Variable(node);
}

Variable Neg(const Variable& a) { return Scale(a, -1.0f); }

Variable Sigmoid(const Variable& a) {
  SES_OP_FWD("Sigmoid");
  return UnaryOp<true>(
      a, t::Sigmoid(a.value()),
      [](float, float y) { return y * (1.0f - y); }, "bwd:Sigmoid");
}

Variable Tanh(const Variable& a) {
  SES_OP_FWD("Tanh");
  return UnaryOp<true>(
      a, t::Tanh(a.value()), [](float, float y) { return 1.0f - y * y; },
      "bwd:Tanh");
}

Variable Relu(const Variable& a) {
  SES_OP_FWD("Relu");
  return UnaryOp<false>(
      a, t::Relu(a.value()),
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; }, "bwd:Relu");
}

Variable LeakyRelu(const Variable& a, float slope) {
  SES_OP_FWD("LeakyRelu");
  return UnaryOp<false>(
      a, t::LeakyRelu(a.value(), slope),
      [slope](float x, float) { return x > 0.0f ? 1.0f : slope; },
      "bwd:LeakyRelu");
}

Variable Elu(const Variable& a, float alpha) {
  SES_OP_FWD("Elu");
  // d/dx elu = elu(x) + alpha for x <= 0.
  return UnaryOp<true>(
      a, t::Elu(a.value(), alpha),
      [alpha](float x, float y) { return x > 0.0f ? 1.0f : y + alpha; },
      "bwd:Elu");
}

Variable Exp(const Variable& a) {
  SES_OP_FWD("Exp");
  return UnaryOp<true>(
      a, t::Exp(a.value()), [](float, float y) { return y; }, "bwd:Exp");
}

Variable Log(const Variable& a) {
  SES_OP_FWD("Log");
  return UnaryOp<false>(
      a, t::Log(a.value()),
      [](float x, float) { return 1.0f / std::max(x, 1e-12f); }, "bwd:Log");
}

Variable Sqrt(const Variable& a, float eps) {
  SES_OP_FWD("Sqrt");
  return UnaryOp<true>(
      a, t::Sqrt(a.value()),
      [eps](float, float y) { return 0.5f / std::max(y, eps); }, "bwd:Sqrt");
}

Variable Pow(const Variable& a, float p) {
  SES_OP_FWD("Pow");
  const t::Tensor& x = a.value();
  // Negative powers keep the base at least 1e-12 away from zero.
  const auto base = [p](float v) {
    if (p < 0.0f && std::fabs(v) < 1e-12f) return v >= 0.0f ? 1e-12f : -1e-12f;
    return v;
  };
  t::Tensor y(x.rows(), x.cols());
  const int64_t n = x.size();
  // The two exponents in use (mean and symmetric degree normalisation, the
  // cosine denominator) are exact: one division or square root, and a
  // derivative from y alone, p·y/base = -y² or -y³/2.
  if (p == -1.0f) {
    for (int64_t i = 0; i < n; ++i) y[i] = 1.0f / base(x[i]);
    return UnaryOp<true>(
        a, std::move(y), [](float, float v) { return -v * v; }, "bwd:Pow");
  }
  if (p == -0.5f) {
    for (int64_t i = 0; i < n; ++i) y[i] = 1.0f / std::sqrt(base(x[i]));
    return UnaryOp<true>(
        a, std::move(y), [](float, float v) { return -0.5f * v * v * v; },
        "bwd:Pow");
  }
  for (int64_t i = 0; i < n; ++i) y[i] = std::pow(base(x[i]), p);
  return UnaryOp<false>(
      a, std::move(y),
      [p, base](float v, float) { return p * std::pow(base(v), p - 1.0f); },
      "bwd:Pow");
}

Variable ScaleBy(const Variable& a, const Variable& scalar) {
  SES_OP_FWD("ScaleBy");
  NodePtr pa = a.node(), ps = scalar.node();
  SES_CHECK(ps->value.size() == 1);
  t::Tensor y = t::Scale(pa->value, ps->value[0]);
  auto node = MakeOpNode(
      std::move(y), {pa, ps},
      [pa, ps](const t::Tensor& g) {
        if (pa->requires_grad) pa->EnsureGrad().AddScaled(g, ps->value[0]);
        if (ps->requires_grad) {
          double acc = 0.0;
          for (int64_t i = 0; i < g.size(); ++i)
            acc += static_cast<double>(g[i]) * pa->value[i];
          ps->EnsureGrad()[0] += static_cast<float>(acc);
        }
      },
      "bwd:ScaleBy");
  return Variable(node);
}

Variable LogSoftmaxRows(const Variable& a) {
  SES_OP_FWD("LogSoftmaxRows");
  NodePtr pa = a.node();
  t::Tensor y = t::LogSoftmaxRows(pa->value);
  if (!GradEnabled()) return Variable(MakeTapeFreeNode(std::move(y)));
  t::Tensor softmax = t::Exp(y);
  auto node = MakeOpNode(
      std::move(y), {pa},
      [pa, softmax = std::move(softmax)](const t::Tensor& g) {
        if (!pa->requires_grad) return;
        // dX = dY - softmax * rowsum(dY)
        t::Tensor& dst = pa->EnsureGrad();
        for (int64_t r = 0; r < g.rows(); ++r) {
          const float* pg = g.RowPtr(r);
          const float* ps = softmax.RowPtr(r);
          float* pd = dst.RowPtr(r);
          double rowsum = 0.0;
          for (int64_t c = 0; c < g.cols(); ++c) rowsum += pg[c];
          for (int64_t c = 0; c < g.cols(); ++c)
            pd[c] += pg[c] - ps[c] * static_cast<float>(rowsum);
        }
      },
      "bwd:LogSoftmaxRows");
  return Variable(node);
}

Variable SoftmaxRows(const Variable& a) {
  SES_OP_FWD("SoftmaxRows");
  NodePtr pa = a.node();
  t::Tensor y = t::SoftmaxRows(pa->value);
  if (!GradEnabled()) return Variable(MakeTapeFreeNode(std::move(y)));
  t::Tensor y_copy = y;
  auto node = MakeOpNode(
      std::move(y), {pa},
      [pa, y = std::move(y_copy)](const t::Tensor& g) {
        if (!pa->requires_grad) return;
        // dX = y * (dY - rowsum(dY * y))
        t::Tensor& dst = pa->EnsureGrad();
        for (int64_t r = 0; r < g.rows(); ++r) {
          const float* pg = g.RowPtr(r);
          const float* py = y.RowPtr(r);
          float* pd = dst.RowPtr(r);
          double dot = 0.0;
          for (int64_t c = 0; c < g.cols(); ++c) dot += pg[c] * py[c];
          for (int64_t c = 0; c < g.cols(); ++c)
            pd[c] += py[c] * (pg[c] - static_cast<float>(dot));
        }
      },
      "bwd:SoftmaxRows");
  return Variable(node);
}

Variable Dropout(const Variable& a, float p, bool training, util::Rng* rng) {
  if (!training || p <= 0.0f) return a;
  SES_OP_FWD("Dropout");
  SES_CHECK(p < 1.0f);
  const t::Tensor& x = a.value();
  const float keep = 1.0f - p;
  const float scale = 1.0f / keep;
  t::Tensor mask(x.rows(), x.cols());
  // Branch-free: 0 or 1 times the scale is bitwise the branching form, and
  // a coin flip's mispredictions cost more than the draw.
  for (int64_t i = 0; i < x.size(); ++i)
    mask[i] = static_cast<float>(rng->Bernoulli(keep)) * scale;
  t::Tensor y = t::Mul(x, mask);
  NodePtr pa = a.node();
  auto node = MakeOpNode(
      std::move(y), {pa},
      [pa, mask = std::move(mask)](const t::Tensor& g) {
        if (!pa->requires_grad) return;
        const float* pm = mask.data();
        AccumulateScaled(pa->EnsureGrad(), g,
                         [pm](int64_t i) { return pm[i]; });
      },
      "bwd:Dropout");
  return Variable(node);
}

Variable SumAll(const Variable& a) {
  SES_OP_FWD("SumAll");
  NodePtr pa = a.node();
  t::Tensor y(1, 1);
  y[0] = pa->value.Sum();
  auto node = MakeOpNode(std::move(y), {pa},
                         [pa](const t::Tensor& g) {
                           if (!pa->requires_grad) return;
                           t::Tensor& dst = pa->EnsureGrad();
                           const float gv = g[0];
                           float* pd = dst.data();
                           for (int64_t i = 0; i < dst.size(); ++i) pd[i] += gv;
                         },
                         "bwd:SumAll");
  return Variable(node);
}

Variable MeanAll(const Variable& a) {
  const float inv = 1.0f / static_cast<float>(a.value().size());
  return Scale(SumAll(a), inv);
}

Variable SumRows(const Variable& a) {
  SES_OP_FWD("SumRows");
  NodePtr pa = a.node();
  auto node = MakeOpNode(t::SumRows(pa->value), {pa},
                         [pa](const t::Tensor& g) {
                           if (!pa->requires_grad) return;
                           t::Tensor& dst = pa->EnsureGrad();
                           for (int64_t r = 0; r < dst.rows(); ++r) {
                             const float gv = g[r];
                             float* pd = dst.RowPtr(r);
                             for (int64_t c = 0; c < dst.cols(); ++c) pd[c] += gv;
                           }
                         },
                         "bwd:SumRows");
  return Variable(node);
}

Variable SumCols(const Variable& a) {
  SES_OP_FWD("SumCols");
  NodePtr pa = a.node();
  auto node = MakeOpNode(t::SumCols(pa->value), {pa},
                         [pa](const t::Tensor& g) {
                           if (!pa->requires_grad) return;
                           t::Tensor& dst = pa->EnsureGrad();
                           const float* pg = g.data();
                           for (int64_t r = 0; r < dst.rows(); ++r) {
                             float* pd = dst.RowPtr(r);
                             for (int64_t c = 0; c < dst.cols(); ++c) pd[c] += pg[c];
                           }
                         },
                         "bwd:SumCols");
  return Variable(node);
}

Variable GatherRows(const Variable& a, std::vector<int64_t> index) {
  SES_OP_FWD("GatherRows");
  NodePtr pa = a.node();
  t::Tensor y = t::GatherRows(pa->value, index);
  auto node = MakeOpNode(std::move(y), {pa},
                         [pa, index = std::move(index)](const t::Tensor& g) {
                           if (!pa->requires_grad) return;
                           t::ScatterAddRows(g, index, &pa->EnsureGrad());
                         },
                         "bwd:GatherRows");
  return Variable(node);
}

Variable ConcatCols(const Variable& a, const Variable& b) {
  SES_OP_FWD("ConcatCols");
  NodePtr pa = a.node(), pb = b.node();
  auto node = MakeOpNode(
      t::ConcatCols(pa->value, pb->value), {pa, pb},
      [pa, pb](const t::Tensor& g) {
        const int64_t ca = pa->value.cols();
        const int64_t cb = pb->value.cols();
        if (pa->requires_grad) {
          t::Tensor& dst = pa->EnsureGrad();
          for (int64_t r = 0; r < g.rows(); ++r) {
            const float* pg = g.RowPtr(r);
            float* pd = dst.RowPtr(r);
            for (int64_t c = 0; c < ca; ++c) pd[c] += pg[c];
          }
        }
        if (pb->requires_grad) {
          t::Tensor& dst = pb->EnsureGrad();
          for (int64_t r = 0; r < g.rows(); ++r) {
            const float* pg = g.RowPtr(r) + ca;
            float* pd = dst.RowPtr(r);
            for (int64_t c = 0; c < cb; ++c) pd[c] += pg[c];
          }
        }
      },
      "bwd:ConcatCols");
  return Variable(node);
}

Variable ConcatRows(const Variable& a, const Variable& b) {
  SES_OP_FWD("ConcatRows");
  NodePtr pa = a.node(), pb = b.node();
  auto node = MakeOpNode(
      t::ConcatRows(pa->value, pb->value), {pa, pb},
      [pa, pb](const t::Tensor& g) {
        const auto add_block = [&g](const NodePtr& p, int64_t offset) {
          t::Tensor& dst = p->EnsureGrad();
          const float* pg = g.data() + offset;
          float* pd = dst.data();
          for (int64_t i = 0; i < dst.size(); ++i) pd[i] += pg[i];
        };
        if (pa->requires_grad) add_block(pa, 0);
        if (pb->requires_grad) add_block(pb, pa->value.size());
      },
      "bwd:ConcatRows");
  return Variable(node);
}

Variable SliceRows(const Variable& a, int64_t lo, int64_t hi) {
  SES_OP_FWD("SliceRows");
  NodePtr pa = a.node();
  auto node = MakeOpNode(
      t::SliceRows(pa->value, lo, hi), {pa},
      [pa, lo](const t::Tensor& g) {
        if (!pa->requires_grad) return;
        t::Tensor& dst = pa->EnsureGrad();
        for (int64_t r = 0; r < g.rows(); ++r) {
          const float* pg = g.RowPtr(r);
          float* pd = dst.RowPtr(lo + r);
          for (int64_t c = 0; c < g.cols(); ++c) pd[c] += pg[c];
        }
      },
      "bwd:SliceRows");
  return Variable(node);
}

Variable NllLoss(const Variable& log_probs, const std::vector<int64_t>& labels,
                 const std::vector<int64_t>& indices) {
  SES_OP_FWD("NllLoss");
  SES_CHECK(!indices.empty());
  NodePtr pa = log_probs.node();
  const t::Tensor& lp = pa->value;
  double acc = 0.0;
  for (int64_t i : indices) {
    SES_CHECK(i >= 0 && i < lp.rows());
    SES_CHECK(labels[static_cast<size_t>(i)] >= 0 &&
              labels[static_cast<size_t>(i)] < lp.cols());
    acc -= lp.At(i, labels[static_cast<size_t>(i)]);
  }
  t::Tensor y(1, 1);
  const float inv = 1.0f / static_cast<float>(indices.size());
  y[0] = static_cast<float>(acc) * inv;
  auto node = MakeOpNode(std::move(y), {pa},
                         [pa, labels, indices, inv](const t::Tensor& g) {
                           if (!pa->requires_grad) return;
                           t::Tensor& dst = pa->EnsureGrad();
                           const float gv = g[0] * inv;
                           for (int64_t i : indices)
                             dst.At(i, labels[static_cast<size_t>(i)]) -= gv;
                         },
                         "bwd:NllLoss");
  return Variable(node);
}

Variable L1Loss(const Variable& pred, const tensor::Tensor& target) {
  SES_OP_FWD("L1Loss");
  NodePtr pa = pred.node();
  SES_CHECK(pa->value.SameShape(target));
  const int64_t n = pa->value.size();
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += std::fabs(pa->value[i] - target[i]);
  t::Tensor y(1, 1);
  y[0] = static_cast<float>(acc / static_cast<double>(n));
  auto node = MakeOpNode(
      std::move(y), {pa},
      [pa, target](const t::Tensor& g) {
        if (!pa->requires_grad) return;
        t::Tensor& dst = pa->EnsureGrad();
        const float gv = g[0] / static_cast<float>(pa->value.size());
        for (int64_t i = 0; i < pa->value.size(); ++i) {
          const float d = pa->value[i] - target[i];
          dst[i] += gv * (d > 0.0f ? 1.0f : (d < 0.0f ? -1.0f : 0.0f));
        }
      },
      "bwd:L1Loss");
  return Variable(node);
}

Variable RowDistance(const Variable& a, const Variable& b, float eps) {
  Variable diff = Sub(a, b);
  Variable sq = Mul(diff, diff);
  Variable sums = SumRows(sq);
  return Sqrt(AddScalar(sums, eps));
}

Variable TripletLoss(const Variable& anchor, const Variable& positive,
                     const Variable& negative, float margin) {
  SES_TRACE_SPAN("loss/TripletLoss");
  Variable d_ap = RowDistance(anchor, positive);
  Variable d_an = RowDistance(anchor, negative);
  Variable hinge = Relu(AddScalar(Sub(d_ap, d_an), margin));
  return MeanAll(hinge);
}

}  // namespace ses::autograd
