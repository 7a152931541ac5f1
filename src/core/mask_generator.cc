#include "core/mask_generator.h"

#include "util/logging.h"

namespace ses::core {

namespace ag = ses::autograd;
namespace t = ses::tensor;

MaskGenerator::MaskGenerator(int64_t hidden_dim, int64_t feature_dim,
                             util::Rng* rng)
    : feature_hidden_(hidden_dim, hidden_dim, rng) {
  RegisterModule(&feature_hidden_);
  feature_w_ = RegisterParameter(t::Tensor::Xavier(hidden_dim, feature_dim, rng));
  feature_b_ = RegisterParameter(t::Tensor::Zeros(1, feature_dim));
  struct_proj_ = RegisterParameter(
      t::Tensor::Xavier(hidden_dim, hidden_dim, rng));
  struct_dot_ = RegisterParameter(t::Tensor::Full(1, 1, 2.0f));
  struct_b_ = RegisterParameter(t::Tensor::Zeros(1, 1));
}

ag::Variable MaskGenerator::FeatureMask(
    const ag::Variable& h,
    const std::shared_ptr<const t::SparseMatrix>& pattern) const {
  ag::Variable hidden = ag::Relu(feature_hidden_.Forward(h));
  return ag::FeatureMaskAtNnz(hidden, feature_w_, feature_b_, pattern);
}

ag::Variable MaskGenerator::StructureMask(
    const ag::Variable& h, const ag::EdgeListPtr& pairs) const {
  // Similarity of the (projected) endpoint embeddings, through a learned
  // gain and bias. A per-node additive term f(i) + g(j) is deliberately
  // absent: it admits two symmetric optima under the pair labels (score by
  // "which cluster is popular" in either direction) and flips between them
  // across seeds, whereas the cosine is anchored by the classifier's
  // embedding geometry. Row normalization keeps the similarity bounded
  // regardless of encoder scale.
  ag::Variable hp = ag::MatMul(h, struct_proj_);  // N x hidden
  return ag::PairCosineMask(hp, pairs, struct_dot_, struct_b_);  // E x 1
}

}  // namespace ses::core
