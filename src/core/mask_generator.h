#ifndef SES_CORE_MASK_GENERATOR_H_
#define SES_CORE_MASK_GENERATOR_H_

#include <memory>

#include "autograd/ops.h"
#include "autograd/sparse_ops.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/sparse.h"
#include "util/rng.h"

namespace ses::core {

/// The global mask generator of SES (Fig. 3): one feature-mask head and one
/// structure-mask head, both reading the first-convolution output H and
/// co-trained with the graph encoder.
///
/// Feature head (Eq. 3): M_f = sigmoid(MLP(H)), evaluated only at the nonzero
/// positions of X (the only entries E_feat = M_f ⊙ X can expose), via the
/// fused FeatureMaskAtNnz kernel.
///
/// Structure head (Eq. 4): the paper scores a pair by a shared linear map
/// of cat(h_i, h_j); its stated mechanism is link-prediction-style
/// similarity ("make the node features within the neighborhood more similar
/// and distinguish them from the features of nodes outside the
/// neighborhood" — an inherently pairwise criterion). We realize it as
///   s_ij = sigmoid(gain * cos(W h_i, W h_j) + b)
/// (MatMul, then the fused PairCosineMask op) with one shared projection W:
/// a purely additive form f(h_i) + g(h_j) cannot express pair similarity at
/// all, and mixing additive terms in makes the optimum bistable across seeds
/// (the additive part can satisfy the pair labels by scoring either cluster
/// high). DESIGN.md §4 records this refinement. W and b are shared between M_s and M_sneg exactly as in
/// the paper.
class MaskGenerator : public nn::Module {
 public:
  MaskGenerator(int64_t hidden_dim, int64_t feature_dim, util::Rng* rng);

  /// M_f restricted to `pattern`'s nonzeros: nnz x 1 in CSR order.
  autograd::Variable FeatureMask(
      const autograd::Variable& h,
      const std::shared_ptr<const tensor::SparseMatrix>& pattern) const;

  /// Structure-mask scores for an arbitrary pair list (k-hop pairs give M_s,
  /// negative pairs give M_sneg, the 1-hop adjacency gives the phase-2 edge
  /// mask): E x 1.
  autograd::Variable StructureMask(const autograd::Variable& h,
                                   const autograd::EdgeListPtr& pairs) const;

 private:
  nn::Linear feature_hidden_;       ///< hidden -> hidden (ReLU)
  autograd::Variable feature_w_;    ///< hidden x F (final sigmoid layer)
  autograd::Variable feature_b_;    ///< 1 x F
  autograd::Variable struct_proj_;  ///< hidden x hidden shared projection
  autograd::Variable struct_dot_;   ///< 1 x 1 gain on cos(W h_i, W h_j)
  autograd::Variable struct_b_;     ///< 1 x 1
};

}  // namespace ses::core

#endif  // SES_CORE_MASK_GENERATOR_H_
