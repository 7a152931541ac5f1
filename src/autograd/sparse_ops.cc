#include "autograd/sparse_ops.h"

#include <algorithm>
#include <cmath>

#include "kernels/dispatch.h"
#include "obs/kernel_scope.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace ses::autograd {

namespace t = ses::tensor;

namespace {

/// out[e] += x[src[e], :] · y[dst[e], :] for every e in [0, n): the SDDMM
/// at the active tier (Dispatch::edge_dot), under one KernelScope.
void EdgeDot(int64_t n, const int64_t* src, const int64_t* dst,
             const t::Tensor& x, const t::Tensor& y, float* out) {
  const kernels::Dispatch& d = kernels::GetDispatch();
  const int64_t f = x.cols();
  const double e = static_cast<double>(n);
  // One multiply-add per edge element; per edge two indices, both rows
  // read and the output updated.
  obs::KernelScope kscope("edge_dot", d.spmm_variant, 2.0 * e * f,
                          e * (24.0 + 8.0 * f));
  d.edge_dot(n, src, dst, x.data(), y.data(), f, out);
}

/// The gradient SpMM: writes plan's rows x f product of weights w and x
/// into `out` (rows x f), overwriting it.
void GradSpmmInto(const kernels::SpmmPlan& plan, const float* w,
                  const t::Tensor& x, t::Tensor* out) {
  const int64_t f = x.cols();
  const double nnz = static_cast<double>(plan.csr.nnz());
  obs::KernelScope kscope(
      "spmm_grad", kernels::GetDispatch().spmm_variant, 2.0 * nnz * f,
      nnz * (20.0 + 4.0 * f) + 4.0 * static_cast<double>(plan.csr.rows) * f);
  plan.Run(w, x.data(), f, out->data(), /*bias=*/nullptr, /*relu=*/false);
}

/// GradSpmmInto a fresh buffer the caller adds to a gradient.
t::Tensor GradSpmm(const kernels::SpmmPlan& plan, const float* w,
                   const t::Tensor& x) {
  t::Tensor out(plan.csr.rows, x.cols());
  GradSpmmInto(plan, w, x, &out);
  return out;
}

/// GradSpmm over a view of (src, dst) built for this call:
///   out[dst[e], :] += w[e] * x[src[e], :],  out is n x x.cols().
/// For index arrays that exist only for the call (a feature matrix's
/// column-grouped view); the view is dropped on return.
t::Tensor GradSpmm(const int64_t* src, const int64_t* dst, int64_t e_count,
                   int64_t n, const float* w, const t::Tensor& x) {
  return GradSpmm(kernels::SpmmPlan{kernels::BuildCsrByDst(src, dst, e_count,
                                                           n)},
                  w, x);
}

/// Row index of every nonzero of a CSR matrix, in entry order.
std::vector<int64_t> RowOfEntries(const t::SparseMatrix& m) {
  std::vector<int64_t> row(static_cast<size_t>(m.nnz()));
  for (int64_t r = 0; r < m.rows; ++r)
    std::fill(row.begin() + m.row_ptr[static_cast<size_t>(r)],
              row.begin() + m.row_ptr[static_cast<size_t>(r) + 1], r);
  return row;
}

/// Shared SpMM backward: dw[e] += x[src[e]]·g[dst[e]] and dx = Aᵀg, i.e.
/// dx[s] += sum over the edges e leaving s of w[e]·g[dst[e]]. Used by both
/// SpMM and the fused SpMMBiasAct (whose epilogue gradient is folded into
/// `g` by the caller). Both run on the active tier's kernels: dw as an
/// SDDMM with one float dot per edge, dx as the forward's CSR SpMM over the
/// transposed plan, whose rows keep edge order (DESIGN.md §14.4).
void AccumulateSpmmGrads(const EdgeList& edges, const NodePtr& pw,
                         const NodePtr& px, const t::Tensor& g) {
  if (pw->requires_grad)
    EdgeDot(edges.size(), edges.src.data(), edges.dst.data(), px->value, g,
            pw->EnsureGrad().data());
  if (px->requires_grad) {
    SES_CHECK(px->value.rows() == edges.num_nodes);
    px->EnsureGrad().AddInPlace(
        GradSpmm(*edges.transposed_plan(), pw->value.data(), g));
  }
}

}  // namespace

Variable SpMM(const EdgeListPtr& edges, const Variable& edge_weight,
              const Variable& x) {
  SES_TRACE_SPAN("fwd:SpMM");
  SES_CHECK(edges != nullptr);
  NodePtr pw = edge_weight.node(), px = x.node();
  const int64_t e_count = edges->size();
  SES_CHECK(pw->value.rows() == e_count && pw->value.cols() == 1);
  const int64_t f = px->value.cols();
  t::Tensor out(edges->num_nodes, f);
  const auto plan = edges->plan();
  {
    // One multiply-add per edge element; per edge — weight + two indices
    // and the source row read; each output row written once.
    obs::KernelScope kscope(
        "spmm", kernels::GetDispatch().spmm_variant,
        2.0 * static_cast<double>(e_count) * f,
        static_cast<double>(e_count) * (20.0 + 4.0 * f) +
            4.0 * static_cast<double>(edges->num_nodes) * f);
    plan->Run(pw->value.data(), px->value.data(), f, out.data(),
              /*bias=*/nullptr, /*relu=*/false);
  }
  auto node = MakeOpNode(
      std::move(out), {pw, px},
      [edges, pw, px](const t::Tensor& g) {
        AccumulateSpmmGrads(*edges, pw, px, g);
      },
      "bwd:SpMM");
  return Variable(node);
}

Variable SpMMBiasAct(const EdgeListPtr& edges, const Variable& edge_weight,
                     const Variable& x, const Variable& bias, bool relu) {
  SES_TRACE_SPAN("fwd:SpMMBiasAct");
  SES_CHECK(edges != nullptr);
  NodePtr pw = edge_weight.node(), px = x.node();
  NodePtr pb = bias.defined() ? bias.node() : nullptr;
  const int64_t e_count = edges->size();
  SES_CHECK(pw->value.rows() == e_count && pw->value.cols() == 1);
  const int64_t f = px->value.cols();
  if (pb != nullptr) SES_CHECK(pb->value.size() == f);
  const bool fused = pb != nullptr || relu;
  const double n_out = static_cast<double>(edges->num_nodes);
  t::Tensor out(edges->num_nodes, f);
  const auto plan = edges->plan();
  {
    // Aggregation plus the fused epilogue (bias add + activation applied
    // per CSR row while it is cache-hot): epilogue adds ~2 ops/element but
    // no extra output traffic.
    obs::KernelScope kscope(
        fused ? "spmm_fused" : "spmm", kernels::GetDispatch().spmm_variant,
        2.0 * static_cast<double>(e_count) * f + (fused ? 2.0 * n_out * f : 0.0),
        static_cast<double>(e_count) * (20.0 + 4.0 * f) + 4.0 * n_out * f +
            4.0 * f);
    plan->Run(pw->value.data(), px->value.data(), f, out.data(),
              pb != nullptr ? pb->value.data() : nullptr, relu);
  }
  if (!GradEnabled()) return Variable(MakeTapeFreeNode(std::move(out)));
  t::Tensor out_copy;
  if (relu) out_copy = out;  // ReLU mask: out > 0 ⟺ pre-activation > 0
  std::vector<NodePtr> parents{pw, px};
  if (pb != nullptr) parents.push_back(pb);
  auto node = MakeOpNode(
      std::move(out), std::move(parents),
      [edges, pw, px, pb, f, relu,
       y = std::move(out_copy)](const t::Tensor& g) {
        // d(pre) = g ⊙ 1[out > 0] when the ReLU was fused; then the bias
        // gradient is the column sum and the aggregation gradient is the
        // plain SpMM backward — identical to the unfused chain's composition.
        const t::Tensor* gp = &g;
        t::Tensor dpre;
        if (relu) {
          dpre = t::Tensor(g.rows(), g.cols());
          const int64_t n = g.size();
          const float* pg = g.data();
          const float* py = y.data();
          float* pd = dpre.data();
          for (int64_t i = 0; i < n; ++i)
            pd[i] = py[i] > 0.0f ? pg[i] : 0.0f;
          gp = &dpre;
        }
        if (pb != nullptr && pb->requires_grad) {
          const t::Tensor db = t::SumCols(*gp);  // 1 x F
          t::Tensor& acc = pb->EnsureGrad();
          for (int64_t c = 0; c < f; ++c) acc[c] += db[c];
        }
        AccumulateSpmmGrads(*edges, pw, px, *gp);
      },
      "bwd:SpMMBiasAct");
  return Variable(node);
}

Variable PairCosineMask(const Variable& hp, const EdgeListPtr& pairs,
                        const Variable& gain, const Variable& bias) {
  SES_TRACE_SPAN("fwd:PairCosineMask");
  SES_CHECK(pairs != nullptr);
  SES_CHECK(pairs->dst.size() == pairs->src.size());
  NodePtr ph = hp.node(), pg = gain.node(), pb = bias.node();
  SES_CHECK(pg->value.size() == 1 && pb->value.size() == 1);
  const t::Tensor& hv = ph->value;
  const int64_t e_count = pairs->size();
  const int64_t n = hv.rows();
  const int64_t d = hv.cols();
  SES_CHECK(pairs->num_nodes == n);
  const int64_t* src = pairs->src.data();
  const int64_t* dst = pairs->dst.data();
  bool in_range = true;
  for (int64_t e = 0; e < e_count; ++e)
    in_range &= src[e] >= 0 && src[e] < n && dst[e] >= 0 && dst[e] < n;
  SES_CHECK(in_range);

  // Row norms: float squares summed in double, as SumRows does.
  std::vector<float> norm(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float* row = hv.RowPtr(i);
    double acc = 0.0;
    for (int64_t c = 0; c < d; ++c) acc += row[c] * row[c];
    norm[static_cast<size_t>(i)] = std::sqrt(static_cast<float>(acc) + 1e-9f);
  }
  // out holds the dots, then the scores; cosine is kept for the backward.
  t::Tensor out(e_count, 1);
  EdgeDot(e_count, src, dst, hv, hv, out.data());
  const float gain_v = pg->value[0];
  const float bias_v = pb->value[0];
  std::vector<float> cosine(static_cast<size_t>(e_count));
  for (int64_t e = 0; e < e_count; ++e) {
    const float c = out[e] * (1.0f / (norm[static_cast<size_t>(src[e])] *
                                      norm[static_cast<size_t>(dst[e])]));
    cosine[static_cast<size_t>(e)] = c;
    out[e] = t::SigmoidOf(c * gain_v + bias_v);
  }
  if (!GradEnabled()) return Variable(MakeTapeFreeNode(std::move(out)));
  t::Tensor y = out;
  auto node = MakeOpNode(
      std::move(out), {ph, pg, pb},
      [pairs, ph, pg, pb, gain_v, norm = std::move(norm),
       cosine = std::move(cosine), y = std::move(y)](const t::Tensor& g) {
        const EdgeList& p = *pairs;
        const int64_t e_count = p.size();
        const bool want_h = ph->requires_grad;
        // Per pair: dz through the sigmoid, its share of dgain and db, and
        // for hp the dot weight dz·gain/(‖hp_s‖‖hp_t‖) and dz·gain·cos,
        // which the norms of both endpoints collect.
        std::vector<float> dot_w(want_h ? static_cast<size_t>(e_count) : 0);
        std::vector<double> radial(want_h ? static_cast<size_t>(p.num_nodes)
                                          : 0);
        double dgain = 0.0;
        float db = 0.0f;
        for (int64_t e = 0; e < e_count; ++e) {
          const float c = cosine[static_cast<size_t>(e)];
          const float dz = g[e] * (y[e] * (1.0f - y[e]));
          dgain += static_cast<double>(dz) * c;
          db += dz;
          if (!want_h) continue;
          const float dcos = dz * gain_v;
          const size_t s = static_cast<size_t>(p.src[static_cast<size_t>(e)]);
          const size_t t = static_cast<size_t>(p.dst[static_cast<size_t>(e)]);
          dot_w[static_cast<size_t>(e)] = dcos * (1.0f / (norm[s] * norm[t]));
          radial[s] += static_cast<double>(dcos) * c;
          radial[t] += static_cast<double>(dcos) * c;
        }
        if (pg->requires_grad) pg->EnsureGrad()[0] += static_cast<float>(dgain);
        if (pb->requires_grad) pb->EnsureGrad()[0] += db;
        if (!want_h) return;
        // dhp = A·hp + Aᵀ·hp with A[dst[e], src[e]] = dot_w[e]: each pair
        // sends its weight times one endpoint's row to the other. The norm
        // of row i moves cos by -cos/‖hp_i‖ and itself by hp_i/‖hp_i‖, so
        // row i also gets -radial[i]/‖hp_i‖² · hp_i.
        const t::Tensor& hv = ph->value;
        const int64_t f = hv.cols();
        t::Tensor& dh = ph->EnsureGrad();
        t::Tensor spmm(p.num_nodes, f);
        GradSpmmInto(*p.plan(), dot_w.data(), hv, &spmm);
        dh.AddInPlace(spmm);
        GradSpmmInto(*p.transposed_plan(), dot_w.data(), hv, &spmm);
        for (int64_t i = 0; i < p.num_nodes; ++i) {
          const float nrm = norm[static_cast<size_t>(i)];
          const float k =
              static_cast<float>(-radial[static_cast<size_t>(i)]) / (nrm * nrm);
          const float* h_row = hv.RowPtr(i);
          const float* s_row = spmm.RowPtr(i);
          float* d_row = dh.RowPtr(i);
          for (int64_t c = 0; c < f; ++c) d_row[c] += s_row[c] + k * h_row[c];
        }
      },
      "bwd:PairCosineMask");
  return Variable(node);
}

Variable EdgeSoftmax(const EdgeListPtr& edges, const Variable& scores) {
  SES_TRACE_SPAN("fwd:EdgeSoftmax");
  SES_CHECK(edges != nullptr);
  NodePtr ps = scores.node();
  const int64_t e_count = edges->size();
  SES_CHECK(ps->value.rows() == e_count && ps->value.cols() == 1);
  const int64_t n = edges->num_nodes;

  // Per-destination max for numerical stability, then exp / group-sum.
  std::vector<float> group_max(static_cast<size_t>(n),
                               -std::numeric_limits<float>::infinity());
  const t::Tensor& s = ps->value;
  for (int64_t e = 0; e < e_count; ++e) {
    const int64_t d = edges->dst[static_cast<size_t>(e)];
    group_max[static_cast<size_t>(d)] =
        std::max(group_max[static_cast<size_t>(d)], s[e]);
  }
  std::vector<double> group_sum(static_cast<size_t>(n), 0.0);
  t::Tensor y(e_count, 1);
  for (int64_t e = 0; e < e_count; ++e) {
    const int64_t d = edges->dst[static_cast<size_t>(e)];
    y[e] = std::exp(s[e] - group_max[static_cast<size_t>(d)]);
    group_sum[static_cast<size_t>(d)] += y[e];
  }
  for (int64_t e = 0; e < e_count; ++e) {
    const int64_t d = edges->dst[static_cast<size_t>(e)];
    y[e] = static_cast<float>(y[e] / group_sum[static_cast<size_t>(d)]);
  }
  if (!GradEnabled()) return Variable(MakeTapeFreeNode(std::move(y)));
  t::Tensor y_copy = y;
  auto node = MakeOpNode(
      std::move(y), {ps},
      [edges, ps, y = std::move(y_copy), n](const t::Tensor& g) {
        if (!ps->requires_grad) return;
        // dS_e = y_e * (dY_e - sum_{e' in group} dY_e' * y_e')
        std::vector<double> group_dot(static_cast<size_t>(n), 0.0);
        const int64_t e_count = edges->size();
        for (int64_t e = 0; e < e_count; ++e)
          group_dot[static_cast<size_t>(edges->dst[static_cast<size_t>(e)])] +=
              static_cast<double>(g[e]) * y[e];
        t::Tensor& ds = ps->EnsureGrad();
        for (int64_t e = 0; e < e_count; ++e) {
          const int64_t d = edges->dst[static_cast<size_t>(e)];
          ds[e] += y[e] * (g[e] - static_cast<float>(
                                      group_dot[static_cast<size_t>(d)]));
        }
      },
      "bwd:EdgeSoftmax");
  return Variable(node);
}

Variable SparseMaskedLinear(const std::shared_ptr<const tensor::SparseMatrix>& x,
                            const Variable& mask, const Variable& w) {
  SES_TRACE_SPAN("fwd:SparseMaskedLinear");
  SES_CHECK(x != nullptr);
  NodePtr pw = w.node();
  NodePtr pm = mask.defined() ? mask.node() : nullptr;
  SES_CHECK(pw->value.rows() == x->cols);
  if (pm) SES_CHECK(pm->value.rows() == x->nnz() && pm->value.cols() == 1);

  // Entry weights: values ⊙ mask, or the matrix's own values unmasked.
  t::Tensor masked;
  if (pm) {
    masked = t::Tensor(x->nnz(), 1);
    for (int64_t e = 0; e < x->nnz(); ++e)
      masked[e] = x->values[static_cast<size_t>(e)] * pm->value[e];
  }
  t::Tensor out = x->MatMul(pw->value, pm ? masked.data() : nullptr);
  std::vector<NodePtr> parents{pw};
  if (pm) parents.push_back(pm);
  auto node = MakeOpNode(
      std::move(out), std::move(parents),
      [x, pw, pm, masked = std::move(masked)](const t::Tensor& g) {
        const std::vector<int64_t> row = RowOfEntries(*x);
        if (pw->requires_grad) {
          // dW[j, :] += (mask*x)[i, j] * g[i, :]: the SpMM over the
          // column-grouped view of x.
          pw->EnsureGrad().AddInPlace(
              GradSpmm(row.data(), x->col_idx.data(), x->nnz(), x->cols,
                       pm ? masked.data() : x->values.data(), g));
        }
        if (pm && pm->requires_grad) {
          // dmask[e] += x_val[e] * (W[col(e), :] · g[row(e), :])
          t::Tensor dots(x->nnz(), 1);
          EdgeDot(x->nnz(), x->col_idx.data(), row.data(), pw->value, g,
                  dots.data());
          t::Tensor& dm = pm->EnsureGrad();
          for (int64_t e = 0; e < x->nnz(); ++e)
            dm[e] += x->values[static_cast<size_t>(e)] * dots[e];
        }
      },
      "bwd:SparseMaskedLinear");
  return Variable(node);
}

Variable FeatureMaskAtNnz(const Variable& h, const Variable& w2,
                          const Variable& b2,
                          const std::shared_ptr<const tensor::SparseMatrix>& pattern) {
  SES_TRACE_SPAN("fwd:FeatureMaskAtNnz");
  SES_CHECK(pattern != nullptr);
  NodePtr ph = h.node(), pw = w2.node(), pb = b2.node();
  SES_CHECK(ph->value.rows() == pattern->rows);
  SES_CHECK(pw->value.rows() == ph->value.cols());
  SES_CHECK(pw->value.cols() == pattern->cols);
  SES_CHECK(pb->value.size() == pattern->cols);
  const int64_t nnz = pattern->nnz();
  const int64_t* col = pattern->col_idx.data();

  // z[e] = h[row(e), :] · W2ᵀ[col(e), :] + b[col(e)], then the sigmoid.
  std::vector<int64_t> row = RowOfEntries(*pattern);
  t::Tensor w2t = t::Transpose(pw->value);
  t::Tensor y(nnz, 1);
  EdgeDot(nnz, row.data(), col, ph->value, w2t, y.data());
  const t::Tensor& bv = pb->value;
  for (int64_t e = 0; e < nnz; ++e) y[e] = t::SigmoidOf(y[e] + bv[col[e]]);
  if (!GradEnabled()) return Variable(MakeTapeFreeNode(std::move(y)));
  t::Tensor y_copy = y;
  auto node = MakeOpNode(
      std::move(y), {ph, pw, pb},
      [pattern, ph, pw, pb, row = std::move(row), w2t = std::move(w2t),
       y = std::move(y_copy)](const t::Tensor& g) {
        const int64_t nnz = pattern->nnz();
        const int64_t* col = pattern->col_idx.data();
        // dz[e] = g[e] * y[e] * (1 - y[e])
        t::Tensor dz(nnz, 1);
        for (int64_t e = 0; e < nnz; ++e) dz[e] = g[e] * y[e] * (1.0f - y[e]);
        // dh = pattern(dz) · W2ᵀ;  dW2 = (patternᵀ(dz) · h)ᵀ, the SpMM over
        // the column-grouped view.
        if (ph->requires_grad)
          ph->EnsureGrad().AddInPlace(pattern->MatMul(w2t, dz.data()));
        if (pw->requires_grad)
          pw->EnsureGrad().AddInPlace(t::Transpose(GradSpmm(
              row.data(), col, nnz, pattern->cols, dz.data(), ph->value)));
        if (pb->requires_grad) {
          t::Tensor& db = pb->EnsureGrad();
          for (int64_t e = 0; e < nnz; ++e) db[col[e]] += dz[e];
        }
      },
      "bwd:FeatureMaskAtNnz");
  return Variable(node);
}

}  // namespace ses::autograd
