#include "nn/gcn_conv.h"

#include "graph/graph.h"
#include "obs/kernel_scope.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ses::nn {

namespace ag = ses::autograd;
namespace t = ses::tensor;

GcnConv::GcnConv(int64_t in_features, int64_t out_features, util::Rng* rng,
                 bool bias) {
  weight_ = RegisterParameter(
      t::Tensor::Xavier(in_features, out_features, rng), "weight");
  if (bias)
    bias_ = RegisterParameter(t::Tensor::Zeros(1, out_features), "bias");
}

ag::Variable GcnConv::Forward(const FeatureInput& x,
                              const ag::EdgeListPtr& edges,
                              const ag::Variable& edge_weight,
                              bool fuse_relu) const {
  SES_TRACE_SPAN("nn/GcnConv");
  // Composite scope: declares the whole layer's chain work (projection +
  // aggregation); the nested matmul/spmm scopes keep their own exclusive
  // counter deltas.
  const double n = static_cast<double>(x.rows());
  const double in = static_cast<double>(weight_.rows());
  const double out_f = static_cast<double>(weight_.cols());
  const double e = static_cast<double>(edges->size());
  obs::KernelScope kscope("gcn_conv", "forward",
                          2.0 * n * in * out_f + 2.0 * e * out_f,
                          4.0 * (n * in + in * out_f + 2.0 * n * out_f) +
                              12.0 * e * out_f);
  ag::Variable h = x.Project(weight_);
  // Bias (and the optional ReLU) ride the aggregation's epilogue: one pass
  // over the output rows instead of SpMM -> AddRowVector -> Relu.
  if (bias_.defined() || fuse_relu)
    return ag::SpMMBiasAct(edges, edge_weight, h, bias_, fuse_relu);
  return ag::SpMM(edges, edge_weight, h);
}

ag::Variable MakeGcnWeights(const ag::EdgeListPtr& edges) {
  auto weights = graph::Graph::GcnNormWeights(*edges);
  t::Tensor w(static_cast<int64_t>(weights.size()), 1);
  for (size_t i = 0; i < weights.size(); ++i)
    w[static_cast<int64_t>(i)] = weights[i];
  return ag::Variable::Constant(std::move(w));
}

}  // namespace ses::nn
