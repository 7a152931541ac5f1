#include "nn/gat_conv.h"

#include "autograd/ops.h"

#include "obs/kernel_scope.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ses::nn {

namespace ag = ses::autograd;
namespace t = ses::tensor;

GatConv::GatConv(int64_t in_features, int64_t out_per_head, int64_t heads,
                 util::Rng* rng, float leaky_slope)
    : leaky_slope_(leaky_slope) {
  SES_CHECK(heads >= 1);
  for (int64_t h = 0; h < heads; ++h) {
    const std::string head = std::to_string(h);
    w_.push_back(RegisterParameter(
        t::Tensor::Xavier(in_features, out_per_head, rng), "w" + head));
    a_src_.push_back(RegisterParameter(
        t::Tensor::Xavier(out_per_head, 1, rng), "a_src" + head));
    a_dst_.push_back(RegisterParameter(
        t::Tensor::Xavier(out_per_head, 1, rng), "a_dst" + head));
  }
  bias_ = RegisterParameter(t::Tensor::Zeros(1, heads * out_per_head), "bias");
}

ag::Variable GatConv::Forward(const FeatureInput& x,
                              const ag::EdgeListPtr& edges,
                              const ag::Variable& edge_mask,
                              bool renormalize) const {
  SES_TRACE_SPAN("nn/GatConv");
  const int64_t e_count = edges->size();
  // Composite scope over all heads: projections (2·N·in·out each), two
  // attention products (2·N·out), edge scoring/softmax (~10·E) and the
  // per-head SpMM (2·E·out). Nested kernel scopes keep exclusive counters.
  const double heads = static_cast<double>(w_.size());
  const double n = static_cast<double>(x.rows());
  const double in = static_cast<double>(w_.empty() ? 0 : w_[0].rows());
  const double out_f = static_cast<double>(w_.empty() ? 0 : w_[0].cols());
  const double e = static_cast<double>(e_count);
  obs::KernelScope kscope(
      "gat_conv", "forward",
      heads * (2.0 * n * in * out_f + 4.0 * n * out_f + 10.0 * e +
               2.0 * e * out_f),
      heads * (4.0 * (n * in + in * out_f + 2.0 * n * out_f) + 48.0 * e +
               12.0 * e * out_f));
  last_attention_ = t::Tensor(e_count, 1);
  ag::Variable out;
  for (size_t h = 0; h < w_.size(); ++h) {
    ag::Variable wh = x.Project(w_[h]);           // N x out
    ag::Variable s_src = ag::MatMul(wh, a_src_[h]);  // N x 1
    ag::Variable s_dst = ag::MatMul(wh, a_dst_[h]);  // N x 1
    ag::Variable scores = ag::Add(ag::GatherRows(s_src, edges->src),
                                  ag::GatherRows(s_dst, edges->dst));
    scores = ag::LeakyRelu(scores, leaky_slope_);
    ag::Variable alpha = ag::EdgeSoftmax(edges, scores);
    if (edge_mask.defined()) {
      alpha = ag::Mul(alpha, edge_mask);
      if (renormalize) {
        // Renormalize per destination so coefficients stay a convex
        // combination — a sparse mask reweights messages instead of
        // shrinking the aggregation toward zero.
        ag::Variable ones = ag::Variable::Constant(
            t::Tensor::Ones(edges->num_nodes, 1));
        ag::Variable sums = ag::SpMM(edges, alpha, ones);
        alpha = ag::Mul(
            alpha, ag::GatherRows(ag::Pow(ag::AddScalar(sums, 1e-9f), -1.0f),
                                  edges->dst));
      }
    }
    last_attention_.AddInPlace(alpha.value());
    ag::Variable head_out = ag::SpMM(edges, alpha, wh);
    out = (h == 0) ? head_out : ag::ConcatCols(out, head_out);
  }
  last_attention_.ScaleInPlace(1.0f / static_cast<float>(w_.size()));
  out = ag::AddRowVector(out, bias_);
  return out;
}

}  // namespace ses::nn
