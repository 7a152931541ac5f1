#include "models/encoders.h"

#include "autograd/ops.h"
#include "obs/kernel_scope.h"
#include "util/logging.h"

namespace ses::models {

namespace ag = ses::autograd;
namespace t = ses::tensor;

namespace {

/// Symmetric normalization over the MASK-WEIGHTED graph:
///   w_e = m_e / sqrt(deg_m(src) * deg_m(dst)),  deg_m(v) = sum of incoming
/// mask weights. A masked adjacency is a weighted graph; normalizing by the
/// weighted degree keeps the aggregation's scale stable however sparse the
/// mask gets (a plain norm*mask product shrinks activations by mask^2 per
/// two layers and collapses inference on sparse masks). Differentiable in
/// the mask.
ag::Variable WeightedGcnNorm(const ag::EdgeListPtr& edges,
                             const ag::Variable& mask) {
  // Composite normalize+aggregate chain: degree SpMM (2E), rsqrt (2N
  // nominal), two gathers and two per-edge products (2E). Nested kernel
  // scopes keep exclusive counter deltas.
  const double e = static_cast<double>(edges->size());
  const double n = static_cast<double>(edges->num_nodes);
  obs::KernelScope kscope("aggregate_norm", "weighted_gcn", 4.0 * e + 2.0 * n,
                          40.0 * e + 16.0 * n);
  ag::Variable ones = ag::Variable::Constant(
      t::Tensor::Ones(edges->num_nodes, 1));
  ag::Variable deg = ag::SpMM(edges, mask, ones);  // N x 1 weighted degree
  ag::Variable inv_sqrt = ag::Pow(ag::AddScalar(deg, 1e-9f), -0.5f);
  return ag::Mul(mask, ag::Mul(ag::GatherRows(inv_sqrt, edges->src),
                               ag::GatherRows(inv_sqrt, edges->dst)));
}

}  // namespace

GcnEncoder::GcnEncoder(int64_t in, int64_t hidden, int64_t out, util::Rng* rng)
    : hidden_(hidden), conv1_(in, hidden, rng), conv2_(hidden, out, rng) {
  RegisterModule(&conv1_, "conv1");
  RegisterModule(&conv2_, "conv2");
}

ag::Variable GcnEncoder::PrecomputeAggregation(const ag::EdgeListPtr& edges,
                                               const ag::Variable& edge_mask,
                                               bool renormalize_mask) const {
  if (!edge_mask.defined()) return nn::MakeGcnWeights(edges);
  if (renormalize_mask) return WeightedGcnNorm(edges, edge_mask);
  return ag::Mul(nn::MakeGcnWeights(edges), edge_mask);
}

Encoder::Output GcnEncoder::Forward(const nn::FeatureInput& x,
                                    const ag::EdgeListPtr& edges,
                                    const ag::Variable& edge_mask,
                                    float dropout, bool training,
                                    util::Rng* rng, bool renormalize_mask,
                                    const ag::Variable* cached_aggregation)
    const {
  const bool use_cached =
      cached_aggregation != nullptr && cached_aggregation->defined();
  SES_CHECK(!use_cached || !training);
  ag::Variable weights =
      use_cached ? *cached_aggregation
                 : PrecomputeAggregation(edges, edge_mask, renormalize_mask);
  // Layer-1 ReLU is fused into the aggregation epilogue (bias + activation
  // applied per CSR row while it is hot) — equals ag::Relu(conv1.Forward()).
  ag::Variable h = conv1_.Forward(x, edges, weights, /*fuse_relu=*/true);
  Output out;
  out.hidden = h;
  h = ag::Dropout(h, dropout, training, rng);
  out.logits = conv2_.Forward(nn::FeatureInput::Dense(h), edges, weights);
  return out;
}

GatEncoder::GatEncoder(int64_t in, int64_t hidden, int64_t out, int64_t heads,
                       util::Rng* rng)
    : hidden_(hidden),
      conv1_(in, hidden / heads, heads, rng),
      conv2_(hidden, out, /*heads=*/1, rng) {
  SES_CHECK(hidden % heads == 0);
  RegisterModule(&conv1_, "conv1");
  RegisterModule(&conv2_, "conv2");
}

Encoder::Output GatEncoder::Forward(const nn::FeatureInput& x,
                                    const ag::EdgeListPtr& edges,
                                    const ag::Variable& edge_mask,
                                    float dropout, bool training,
                                    util::Rng* rng, bool renormalize_mask,
                                    const ag::Variable* cached_aggregation)
    const {
  // Attention coefficients depend on node features; there is nothing to
  // cache, so `cached_aggregation` is ignored (PrecomputeAggregation
  // returns undefined for GAT).
  (void)cached_aggregation;
  ag::Variable h =
      ag::Elu(conv1_.Forward(x, edges, edge_mask, renormalize_mask));
  Output out;
  out.hidden = h;
  h = ag::Dropout(h, dropout, training, rng);
  out.logits = conv2_.Forward(nn::FeatureInput::Dense(h), edges, edge_mask,
                              renormalize_mask);
  return out;
}

namespace {

/// Per-edge aggregation weight for the sum/mean aggregators: the mask when
/// defined (optionally renormalized into a mean), else constant.
ag::Variable AggregationWeights(const ag::EdgeListPtr& edges,
                                const ag::Variable& edge_mask, bool mean,
                                bool renormalize) {
  const bool normalizes = mean || (edge_mask.defined() && renormalize);
  const double e = static_cast<double>(edges->size());
  const double n = static_cast<double>(edges->num_nodes);
  obs::KernelScope kscope("aggregate_norm",
                          normalizes ? "degree_mean" : "passthrough",
                          normalizes ? 3.0 * e + 2.0 * n : 0.0,
                          normalizes ? 32.0 * e + 16.0 * n : 4.0 * e);
  ag::Variable w = edge_mask.defined()
                       ? edge_mask
                       : ag::Variable::Constant(
                             t::Tensor::Ones(edges->size(), 1));
  if (mean || (edge_mask.defined() && renormalize)) {
    ag::Variable ones = ag::Variable::Constant(
        t::Tensor::Ones(edges->num_nodes, 1));
    ag::Variable deg = ag::SpMM(edges, w, ones);
    w = ag::Mul(w, ag::GatherRows(ag::Pow(ag::AddScalar(deg, 1e-9f), -1.0f),
                                  edges->dst));
  }
  return w;
}

}  // namespace

GinEncoder::GinEncoder(int64_t in, int64_t hidden, int64_t out, util::Rng* rng)
    : hidden_(hidden),
      mlp1_({hidden, hidden, hidden}, rng),
      mlp2_({hidden, hidden, out}, rng) {
  w1_ = ag::Variable::Parameter(t::Tensor::Xavier(in, hidden, rng));
  eps1_ = ag::Variable::Parameter(t::Tensor::Zeros(1, 1));
  eps2_ = ag::Variable::Parameter(t::Tensor::Zeros(1, 1));
  RegisterModule(&mlp1_, "mlp1");
  RegisterModule(&mlp2_, "mlp2");
  // w1_/eps were created outside RegisterParameter; adopt them.
  AdoptParameter(w1_, "w1");
  AdoptParameter(eps1_, "eps1");
  AdoptParameter(eps2_, "eps2");
}

ag::Variable GinEncoder::PrecomputeAggregation(const ag::EdgeListPtr& edges,
                                               const ag::Variable& edge_mask,
                                               bool renormalize_mask) const {
  return AggregationWeights(edges, edge_mask, /*mean=*/false,
                            renormalize_mask);
}

Encoder::Output GinEncoder::Forward(const nn::FeatureInput& x,
                                    const ag::EdgeListPtr& edges,
                                    const ag::Variable& edge_mask,
                                    float dropout, bool training,
                                    util::Rng* rng, bool renormalize_mask,
                                    const ag::Variable* cached_aggregation)
    const {
  const bool use_cached =
      cached_aggregation != nullptr && cached_aggregation->defined();
  SES_CHECK(!use_cached || !training);
  ag::Variable w = use_cached ? *cached_aggregation
                              : AggregationWeights(edges, edge_mask,
                                                   /*mean=*/false,
                                                   renormalize_mask);
  ag::Variable h0 = x.Project(w1_);
  ag::Variable agg1 = ag::SpMM(edges, w, h0);
  ag::Variable h1 = mlp1_.Forward(
      ag::Add(agg1, ag::ScaleBy(h0, ag::AddScalar(eps1_, 1.0f))));
  h1 = ag::Relu(h1);
  Output out;
  out.hidden = h1;
  h1 = ag::Dropout(h1, dropout, training, rng);
  ag::Variable agg2 = ag::SpMM(edges, w, h1);
  out.logits = mlp2_.Forward(
      ag::Add(agg2, ag::ScaleBy(h1, ag::AddScalar(eps2_, 1.0f))));
  return out;
}

SageEncoder::SageEncoder(int64_t in, int64_t hidden, int64_t out,
                         util::Rng* rng)
    : hidden_(hidden) {
  w_self1_ = ag::Variable::Parameter(t::Tensor::Xavier(in, hidden, rng));
  w_nbr1_ = ag::Variable::Parameter(t::Tensor::Xavier(in, hidden, rng));
  w_self2_ = ag::Variable::Parameter(t::Tensor::Xavier(hidden, out, rng));
  w_nbr2_ = ag::Variable::Parameter(t::Tensor::Xavier(hidden, out, rng));
  b1_ = ag::Variable::Parameter(t::Tensor::Zeros(1, hidden));
  b2_ = ag::Variable::Parameter(t::Tensor::Zeros(1, out));
  AdoptParameter(w_self1_, "w_self1");
  AdoptParameter(w_nbr1_, "w_nbr1");
  AdoptParameter(w_self2_, "w_self2");
  AdoptParameter(w_nbr2_, "w_nbr2");
  AdoptParameter(b1_, "b1");
  AdoptParameter(b2_, "b2");
}

ag::Variable SageEncoder::PrecomputeAggregation(const ag::EdgeListPtr& edges,
                                                const ag::Variable& edge_mask,
                                                bool renormalize_mask) const {
  return AggregationWeights(edges, edge_mask, /*mean=*/true,
                            renormalize_mask);
}

Encoder::Output SageEncoder::Forward(const nn::FeatureInput& x,
                                     const ag::EdgeListPtr& edges,
                                     const ag::Variable& edge_mask,
                                     float dropout, bool training,
                                     util::Rng* rng, bool renormalize_mask,
                                     const ag::Variable* cached_aggregation)
    const {
  const bool use_cached =
      cached_aggregation != nullptr && cached_aggregation->defined();
  SES_CHECK(!use_cached || !training);
  ag::Variable w = use_cached ? *cached_aggregation
                              : AggregationWeights(edges, edge_mask,
                                                   /*mean=*/true,
                                                   renormalize_mask);
  ag::Variable self1 = x.Project(w_self1_);
  ag::Variable nbr1 = ag::SpMM(edges, w, x.Project(w_nbr1_));
  ag::Variable h = ag::Relu(
      ag::AddRowVector(ag::Add(self1, nbr1), b1_));
  Output out;
  out.hidden = h;
  h = ag::Dropout(h, dropout, training, rng);
  ag::Variable self2 = ag::MatMul(h, w_self2_);
  ag::Variable nbr2 = ag::SpMM(edges, w, ag::MatMul(h, w_nbr2_));
  out.logits = ag::AddRowVector(ag::Add(self2, nbr2), b2_);
  return out;
}

std::unique_ptr<Encoder> MakeEncoder(const std::string& backbone, int64_t in,
                                     int64_t hidden, int64_t out,
                                     util::Rng* rng) {
  if (backbone == "GCN")
    return std::make_unique<GcnEncoder>(in, hidden, out, rng);
  if (backbone == "GIN")
    return std::make_unique<GinEncoder>(in, hidden, out, rng);
  if (backbone == "SAGE")
    return std::make_unique<SageEncoder>(in, hidden, out, rng);
  if (backbone == "GAT") {
    int64_t heads = 4;
    while (hidden % heads != 0) heads /= 2;
    return std::make_unique<GatEncoder>(in, hidden, out, heads, rng);
  }
  SES_CHECK(false && "unknown backbone");
  return nullptr;
}

}  // namespace ses::models
