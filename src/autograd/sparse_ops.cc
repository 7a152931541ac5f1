#include "autograd/sparse_ops.h"

#include <cmath>

#include "kernels/dispatch.h"
#include "obs/perfcount.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace ses::autograd {

namespace t = ses::tensor;

namespace {

/// Shared SpMM backward: dw[e] += x[src[e]]·g[dst[e]] and dx = Aᵀg, i.e.
/// dx[s] += sum over the edges e leaving s of w[e]·g[dst[e]]. Used by both
/// SpMM and the fused SpMMBiasAct (whose epilogue gradient is folded into
/// `g` by the caller). Both run on the active tier's kernels: dw as an
/// SDDMM with one float dot per edge, dx as the forward's CSR SpMM over the
/// transposed plan, whose rows keep edge order (DESIGN.md §14.4).
void AccumulateSpmmGrads(const EdgeList& edges, const NodePtr& pw,
                         const NodePtr& px, int64_t f, const t::Tensor& g) {
  const kernels::Dispatch& d = kernels::GetDispatch();
  const double e_count = static_cast<double>(edges.size());
  const double n = static_cast<double>(edges.num_nodes);
  if (pw->requires_grad) {
    // One multiply-add per edge element; per edge two indices, both rows
    // read and the weight gradient updated.
    obs::KernelScope kscope("edge_dot", d.spmm_variant, 2.0 * e_count * f,
                            e_count * (24.0 + 8.0 * f));
    d.edge_dot(edges.size(), edges.src.data(), edges.dst.data(),
               px->value.data(), g.data(), f, pw->EnsureGrad().data());
  }
  if (px->requires_grad) {
    SES_CHECK(px->value.rows() == edges.num_nodes);
    t::Tensor dx(edges.num_nodes, f);
    {
      obs::KernelScope kscope("spmm_grad", d.spmm_variant, 2.0 * e_count * f,
                              e_count * (20.0 + 4.0 * f) + 4.0 * n * f);
      edges.transposed_plan()->Run(pw->value.data(), g.data(), f, dx.data(),
                                   /*bias=*/nullptr, /*relu=*/false);
    }
    px->EnsureGrad().AddInPlace(dx);
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
      [edges, pw, px, f](const t::Tensor& g) {
        AccumulateSpmmGrads(*edges, pw, px, f, g);
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
        AccumulateSpmmGrads(*edges, pw, px, f, *gp);
      },
      "bwd:SpMMBiasAct");
  return Variable(node);
}

Variable PairDot(const Variable& h, const EdgeListPtr& pairs) {
  SES_TRACE_SPAN("fwd:PairDot");
  SES_CHECK(pairs != nullptr);
  SES_CHECK(pairs->dst.size() == pairs->src.size());
  NodePtr ph = h.node();
  const t::Tensor& hv = ph->value;
  const int64_t e_count = pairs->size();
  const int64_t n = hv.rows(), d = hv.cols();
  const int64_t* src = pairs->src.data();
  const int64_t* dst = pairs->dst.data();
  bool in_range = true;
  for (int64_t e = 0; e < e_count; ++e)
    in_range &= src[e] >= 0 && src[e] < n && dst[e] >= 0 && dst[e] < n;
  SES_CHECK(in_range);

  t::Tensor out(e_count, 1);
  {
    // One multiply-add per pair element; per pair two indices, both
    // endpoint rows read and one output written.
    obs::KernelScope kscope(
        "pair_dot", "fused", 2.0 * static_cast<double>(e_count) * d,
        static_cast<double>(e_count) * (20.0 + 8.0 * d));
#pragma omp parallel for schedule(static) \
    if (kernels::ShouldParallelize(2.0 * static_cast<double>(e_count) * d))
    for (int64_t e = 0; e < e_count; ++e) {
      const float* a = hv.RowPtr(src[e]);
      const float* b = hv.RowPtr(dst[e]);
      // Float product, double accumulation in column order: t::SumRows over
      // t::Mul, element for element.
      double acc = 0.0;
      for (int64_t c = 0; c < d; ++c) acc += a[c] * b[c];
      out[e] = static_cast<float>(acc);
    }
  }
  auto node = MakeOpNode(
      std::move(out), {ph},
      [pairs, ph, d](const t::Tensor& g) {
        if (!ph->requires_grad) return;
        const t::Tensor& hv = ph->value;
        t::Tensor& dh = ph->EnsureGrad();
        const int64_t e_count = pairs->size();
        obs::KernelScope kscope(
            "pair_dot", "fused_grad", 4.0 * static_cast<double>(e_count) * d,
            static_cast<double>(e_count) * (36.0 + 24.0 * d));
        // The accumulation order of the GatherRows/Mul/SumRows chain under
        // Backward's reverse creation order: GatherRows(h, dst) scatters
        // before GatherRows(h, src), each in pair order. `0.0f + ...`
        // reproduces the signed zeros of that chain's zero-initialised
        // E x d intermediate gradients.
        const auto scatter = [&](const int64_t* to, const int64_t* from) {
          for (int64_t e = 0; e < e_count; ++e) {
            const float ge = g[e];
            const float* hrow = hv.RowPtr(from[e]);
            float* drow = dh.RowPtr(to[e]);
            for (int64_t c = 0; c < d; ++c) drow[c] += 0.0f + ge * hrow[c];
          }
        };
        scatter(pairs->dst.data(), pairs->src.data());
        scatter(pairs->src.data(), pairs->dst.data());
      },
      "bwd:PairDot");
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
  const int64_t h = pw->value.cols();

  t::Tensor out(x->rows, h);
  {
    // Masked CSR x dense-weight product: 2·nnz·h FLOPs (+1 mask multiply per
    // entry); traffic = CSR entry + mask + one W row per nonzero, output
    // written once.
    obs::KernelScope kscope(
        "spmm", "masked_linear",
        static_cast<double>(x->nnz()) * (2.0 * h + 1.0),
        static_cast<double>(x->nnz()) * (16.0 + 4.0 * h) +
            4.0 * static_cast<double>(x->rows) * h);
    const t::Tensor& wv = pw->value;
#pragma omp parallel for schedule(dynamic, 64) \
    if (kernels::ShouldParallelize(2.0 * static_cast<double>(x->nnz()) * h))
    for (int64_t r = 0; r < x->rows; ++r) {
      float* dst = out.RowPtr(r);
      for (int64_t e = x->row_ptr[static_cast<size_t>(r)];
           e < x->row_ptr[static_cast<size_t>(r) + 1]; ++e) {
        float v = x->values[static_cast<size_t>(e)];
        if (pm) v *= pm->value[e];
        if (v == 0.0f) continue;
        const float* wrow = wv.RowPtr(x->col_idx[static_cast<size_t>(e)]);
        for (int64_t c = 0; c < h; ++c) dst[c] += v * wrow[c];
      }
    }
  }
  std::vector<NodePtr> parents{pw};
  if (pm) parents.push_back(pm);
  auto node = MakeOpNode(
      std::move(out), std::move(parents),
      [x, pw, pm, h](const t::Tensor& g) {
        if (pw->requires_grad) {
          // dW[j, :] += (mask*x)[i, j] * g[i, :]
          t::Tensor& dw = pw->EnsureGrad();
          for (int64_t r = 0; r < x->rows; ++r) {
            const float* grow = g.RowPtr(r);
            for (int64_t e = x->row_ptr[static_cast<size_t>(r)];
                 e < x->row_ptr[static_cast<size_t>(r) + 1]; ++e) {
              float v = x->values[static_cast<size_t>(e)];
              if (pm) v *= pm->value[e];
              if (v == 0.0f) continue;
              float* dwrow = dw.RowPtr(x->col_idx[static_cast<size_t>(e)]);
              for (int64_t c = 0; c < h; ++c) dwrow[c] += v * grow[c];
            }
          }
        }
        if (pm && pm->requires_grad) {
          // dmask[e] = x_val[e] * dot(W[col(e), :], g[row(e), :])
          t::Tensor& dm = pm->EnsureGrad();
          const t::Tensor& wv = pw->value;
#pragma omp parallel for schedule(dynamic, 64) \
    if (kernels::ShouldParallelize(2.0 * static_cast<double>(x->nnz()) * h))
          for (int64_t r = 0; r < x->rows; ++r) {
            const float* grow = g.RowPtr(r);
            for (int64_t e = x->row_ptr[static_cast<size_t>(r)];
                 e < x->row_ptr[static_cast<size_t>(r) + 1]; ++e) {
              const float* wrow = wv.RowPtr(x->col_idx[static_cast<size_t>(e)]);
              double acc = 0.0;
              for (int64_t c = 0; c < h; ++c) acc += wrow[c] * grow[c];
              dm[e] += x->values[static_cast<size_t>(e)] *
                       static_cast<float>(acc);
            }
          }
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
  const int64_t hd = ph->value.cols();
  const int64_t nnz = pattern->nnz();

  // Pre-compute row index per nonzero.
  auto row_of = std::make_shared<std::vector<int64_t>>(static_cast<size_t>(nnz));
  for (int64_t r = 0; r < pattern->rows; ++r)
    for (int64_t e = pattern->row_ptr[static_cast<size_t>(r)];
         e < pattern->row_ptr[static_cast<size_t>(r) + 1]; ++e)
      (*row_of)[static_cast<size_t>(e)] = r;

  t::Tensor y(nnz, 1);
  {
    // Per-nonzero sigmoid(h[i]·W2[:,j] + b[j]): a length-hd dot product per
    // entry; W2 column access is strided, billed once per entry.
    obs::KernelScope kscope(
        "spmm", "feature_mask", 2.0 * static_cast<double>(nnz) * hd,
        static_cast<double>(nnz) * (16.0 + 8.0 * hd));
    const t::Tensor& hv = ph->value;
    const t::Tensor& wv = pw->value;
    const t::Tensor& bv = pb->value;
#pragma omp parallel for schedule(static) \
    if (kernels::ShouldParallelize(2.0 * static_cast<double>(nnz) * hd))
    for (int64_t e = 0; e < nnz; ++e) {
      const int64_t i = (*row_of)[static_cast<size_t>(e)];
      const int64_t j = pattern->col_idx[static_cast<size_t>(e)];
      const float* hrow = hv.RowPtr(i);
      double acc = bv[j];
      for (int64_t c = 0; c < hd; ++c) acc += hrow[c] * wv.At(c, j);
      const float z = static_cast<float>(acc);
      y[e] = z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                       : std::exp(z) / (1.0f + std::exp(z));
    }
  }
  if (!GradEnabled()) return Variable(MakeTapeFreeNode(std::move(y)));
  t::Tensor y_copy = y;
  auto node = MakeOpNode(
      std::move(y), {ph, pw, pb},
      [pattern, ph, pw, pb, row_of, hd, y = std::move(y_copy)](
          const t::Tensor& g) {
        const int64_t nnz = pattern->nnz();
        // dz[e] = g[e] * y[e] * (1 - y[e])
        std::vector<float> dz(static_cast<size_t>(nnz));
        for (int64_t e = 0; e < nnz; ++e)
          dz[static_cast<size_t>(e)] = g[e] * y[e] * (1.0f - y[e]);
        const t::Tensor& hv = ph->value;
        const t::Tensor& wv = pw->value;
        if (ph->requires_grad) {
          t::Tensor& dh = ph->EnsureGrad();
          for (int64_t e = 0; e < nnz; ++e) {
            const float d = dz[static_cast<size_t>(e)];
            if (d == 0.0f) continue;
            const int64_t i = (*row_of)[static_cast<size_t>(e)];
            const int64_t j = pattern->col_idx[static_cast<size_t>(e)];
            float* drow = dh.RowPtr(i);
            for (int64_t c = 0; c < hd; ++c) drow[c] += d * wv.At(c, j);
          }
        }
        if (pw->requires_grad) {
          t::Tensor& dw = pw->EnsureGrad();
          for (int64_t e = 0; e < nnz; ++e) {
            const float d = dz[static_cast<size_t>(e)];
            if (d == 0.0f) continue;
            const int64_t i = (*row_of)[static_cast<size_t>(e)];
            const int64_t j = pattern->col_idx[static_cast<size_t>(e)];
            const float* hrow = hv.RowPtr(i);
            for (int64_t c = 0; c < hd; ++c) dw.At(c, j) += d * hrow[c];
          }
        }
        if (pb->requires_grad) {
          t::Tensor& db = pb->EnsureGrad();
          for (int64_t e = 0; e < nnz; ++e)
            db[pattern->col_idx[static_cast<size_t>(e)]] +=
                dz[static_cast<size_t>(e)];
        }
      },
      "bwd:FeatureMaskAtNnz");
  return Variable(node);
}

}  // namespace ses::autograd
