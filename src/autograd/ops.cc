#include "autograd/ops.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

/// Per-op instrumentation: SES_OP_FWD opens a span over the op's forward
/// computation; the matching "bwd:" literal passed to MakeOpNode labels the
/// span Backward() opens around the backward closure. Composite ops (Neg,
/// MeanAll, ...) are covered by the primitives they expand into.
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

Variable TripletLoss(const Variable& z, const TripletsPtr& triplets,
                     float margin) {
  SES_OP_FWD("TripletLoss");
  SES_CHECK(triplets != nullptr);
  const Triplets& tr = *triplets;
  const int64_t count = tr.size();
  SES_CHECK(count > 0);
  SES_CHECK(tr.positive.size() == tr.anchor.size() &&
            tr.negative.size() == tr.anchor.size());
  NodePtr pz = z.node();
  const t::Tensor& zv = pz->value;
  const int64_t n = zv.rows();
  const int64_t c = zv.cols();
  const int64_t* ia = tr.anchor.data();
  const int64_t* ip = tr.positive.data();
  const int64_t* in = tr.negative.data();
  bool in_range = true;
  for (int64_t j = 0; j < count; ++j)
    in_range &= ia[j] >= 0 && ia[j] < n && ip[j] >= 0 && ip[j] < n &&
                in[j] >= 0 && in[j] < n;
  SES_CHECK(in_range);

  // Float differences squared and summed in double, as Sub, Mul and
  // SumRows did; dist keeps d_ap, d_an of each triplet for the backward.
  std::vector<float> dist(2 * static_cast<size_t>(count));
  for (int64_t j = 0; j < count; ++j) {
    const float* a = zv.RowPtr(ia[j]);
    const float* p = zv.RowPtr(ip[j]);
    const float* q = zv.RowPtr(in[j]);
    double ss_p = 0.0, ss_n = 0.0;
    for (int64_t k = 0; k < c; ++k) {
      const float dp = a[k] - p[k];
      const float dn = a[k] - q[k];
      ss_p += dp * dp;
      ss_n += dn * dn;
    }
    const size_t sj = static_cast<size_t>(j);
    dist[2 * sj] = std::sqrt(static_cast<float>(ss_p) + 1e-9f);
    dist[2 * sj + 1] = std::sqrt(static_cast<float>(ss_n) + 1e-9f);
  }
  // The hinges in a pass of their own: their branch then stalls no row.
  double total = 0.0;
  for (size_t j = 0; j < dist.size(); j += 2) {
    const float hinge = (dist[j] - dist[j + 1]) + margin;
    if (hinge > 0.0f) total += hinge;
  }
  const float inv = 1.0f / static_cast<float>(count);
  t::Tensor y(1, 1);
  y[0] = static_cast<float>(total) * inv;
  if (!GradEnabled()) return Variable(MakeTapeFreeNode(std::move(y)));
  auto node = MakeOpNode(
      std::move(y), {pz},
      [pz, triplets, margin, inv, dist = std::move(dist)](const t::Tensor& g) {
        if (!pz->requires_grad) return;
        const Triplets& tr = *triplets;
        const t::Tensor& zv = pz->value;
        const int64_t c = zv.cols();
        t::Tensor& dz = pz->EnsureGrad();
        // An active hinge passes g/T to d_ap and -g/T to d_an; through
        // d = sqrt(s + eps) and s = Σ diff², diff gets 2·(±g/T)·0.5/d, with
        // Sqrt's guard on d. Then +diff to the anchor, -diff to the other.
        const float gt = g[0] * inv;
        for (int64_t j = 0; j < tr.size(); ++j) {
          const size_t sj = static_cast<size_t>(j);
          const float d_ap = dist[2 * sj];
          const float d_an = dist[2 * sj + 1];
          if (!((d_ap - d_an) + margin > 0.0f)) continue;
          const float w_ap = 2.0f * (gt * (0.5f / std::max(d_ap, 1e-12f)));
          const float w_an = 2.0f * (-gt * (0.5f / std::max(d_an, 1e-12f)));
          const float* a = zv.RowPtr(tr.anchor[sj]);
          const float* p = zv.RowPtr(tr.positive[sj]);
          const float* q = zv.RowPtr(tr.negative[sj]);
          float* da = dz.RowPtr(tr.anchor[sj]);
          float* dp = dz.RowPtr(tr.positive[sj]);
          float* dq = dz.RowPtr(tr.negative[sj]);
          for (int64_t k = 0; k < c; ++k) {
            const float gp = w_ap * (a[k] - p[k]);
            const float gn = w_an * (a[k] - q[k]);
            da[k] += gp + gn;
            dp[k] -= gp;
            dq[k] -= gn;
          }
        }
      },
      "bwd:TripletLoss");
  return Variable(node);
}

Variable MaskRegularizer(const Variable& m, float size_weight,
                         float entropy_weight) {
  SES_OP_FWD("MaskRegularizer");
  NodePtr pm = m.node();
  const t::Tensor& mv = pm->value;
  const int64_t e_count = mv.size();
  SES_CHECK(e_count > 0);
  // slope[e] is d/dm of -m log m - (1-m) log(1-m) as the Log chain takes
  // it: log(1-m) + r(1-m) - log m - r(m), r(x) = x / max(x, 1e-12), which
  // is 1 except under the clamp.
  const bool entropy = entropy_weight != 0.0f;
  std::vector<float> slope(entropy ? static_cast<size_t>(e_count) : 0);
  double size_sum = 0.0;
  double entropy_sum = 0.0;
  for (int64_t e = 0; e < e_count; ++e) {
    const float x = mv[e];
    size_sum += x;
    if (!entropy) continue;
    const float x_c = std::max(x, 1e-12f);
    const float o = 1.0f - x;
    const float o_c = std::max(o, 1e-12f);
    const float log_x = std::log(x_c);
    const float log_o = std::log(o_c);
    entropy_sum += -(x * log_x + o * log_o);
    slope[static_cast<size_t>(e)] = (log_o + o / o_c) - (log_x + x / x_c);
  }
  const float inv = 1.0f / static_cast<float>(e_count);
  t::Tensor y(1, 1);
  y[0] = static_cast<float>(size_sum) * inv * size_weight +
         static_cast<float>(entropy_sum) * inv * entropy_weight;
  if (!GradEnabled()) return Variable(MakeTapeFreeNode(std::move(y)));
  auto node = MakeOpNode(
      std::move(y), {pm},
      [pm, inv, size_weight, entropy_weight,
       slope = std::move(slope)](const t::Tensor& g) {
        if (!pm->requires_grad) return;
        const float g_size = g[0] * size_weight * inv;
        const float g_entropy = g[0] * entropy_weight * inv;
        float* dm = pm->EnsureGrad().data();
        const int64_t n = pm->value.size();
        if (slope.empty()) {
          for (int64_t e = 0; e < n; ++e) dm[e] += g_size;
        } else {
          for (int64_t e = 0; e < n; ++e)
            dm[e] += g_size + g_entropy * slope[static_cast<size_t>(e)];
        }
      },
      "bwd:MaskRegularizer");
  return Variable(node);
}

}  // namespace ses::autograd
