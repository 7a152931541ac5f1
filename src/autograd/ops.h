#ifndef SES_AUTOGRAD_OPS_H_
#define SES_AUTOGRAD_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "util/rng.h"

namespace ses::autograd {

/// Differentiable dense operators. Each builds one graph node whose backward
/// closure pushes gradients into the parents. Shapes follow the kernels in
/// tensor/ops.h.

Variable MatMul(const Variable& a, const Variable& b);
Variable Transpose(const Variable& a);

Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);

/// a (N x C) + bias broadcast over rows; bias is 1 x C.
Variable AddRowVector(const Variable& a, const Variable& bias);
/// a (N x C) - row broadcast; used by the prototype layer.
Variable SubRowVector(const Variable& a, const Variable& row);

Variable Scale(const Variable& a, float s);
Variable AddScalar(const Variable& a, float s);
Variable Neg(const Variable& a);

Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Relu(const Variable& a);
Variable LeakyRelu(const Variable& a, float slope);
Variable Elu(const Variable& a, float alpha = 1.0f);
Variable Exp(const Variable& a);
Variable Log(const Variable& a);       ///< clamped at 1e-12
Variable Sqrt(const Variable& a, float eps = 1e-12f);

/// Elementwise power x^p (inputs clamped away from 0 for negative p).
Variable Pow(const Variable& a, float p);

/// a * s where s is a trainable 1 x 1 scalar Variable (broadcast).
Variable ScaleBy(const Variable& a, const Variable& scalar);

Variable LogSoftmaxRows(const Variable& a);
Variable SoftmaxRows(const Variable& a);

/// Inverted dropout; identity when !training or p == 0.
Variable Dropout(const Variable& a, float p, bool training, util::Rng* rng);

Variable SumAll(const Variable& a);   ///< 1 x 1
Variable MeanAll(const Variable& a);  ///< 1 x 1
Variable SumRows(const Variable& a);  ///< N x C -> N x 1
Variable SumCols(const Variable& a);  ///< N x C -> 1 x C

Variable GatherRows(const Variable& a, std::vector<int64_t> index);
Variable ConcatCols(const Variable& a, const Variable& b);
Variable ConcatRows(const Variable& a, const Variable& b);
Variable SliceRows(const Variable& a, int64_t lo, int64_t hi);

/// Mean over `indices` of -log_probs[i, labels[i]] (negative log-likelihood
/// over a node subset — the semi-supervised cross-entropy of Eq. 6).
Variable NllLoss(const Variable& log_probs, const std::vector<int64_t>& labels,
                 const std::vector<int64_t>& indices);

/// Mean |pred - target| (the subgraph loss of Eq. 7 uses this against the
/// stacked 1/0 labels).
Variable L1Loss(const Variable& pred, const tensor::Tensor& target);

/// Row indices of a triplet batch: triplet j is (anchor[j], positive[j],
/// negative[j]), three rows of one matrix. Fill it once and share it frozen:
/// TripletLoss holds it by shared_ptr, so the tape never copies the lists.
struct Triplets {
  std::vector<int64_t> anchor;
  std::vector<int64_t> positive;
  std::vector<int64_t> negative;

  int64_t size() const { return static_cast<int64_t>(anchor.size()); }
};

using TripletsPtr = std::shared_ptr<const Triplets>;

/// Triplet margin loss (Eq. 12) over the rows of z, in one op:
///   mean_j max(d(z_a, z_p) - d(z_a, z_n) + margin, 0)
/// with d(x, y) = sqrt(Σ (x - y)² + 1e-9), squares summed in double. The
/// forward reads the three rows of each triplet once, and keeps both
/// distances; the backward skips inactive hinges (hinge <= 0) and scatters
/// each active triplet's ±(z_a - z_p)/d_ap and ∓(z_a - z_n)/d_an, times
/// g/T, straight into dz, in triplet order. No T x C tensor exists in
/// either pass. Every index must lie in [0, z.rows()) and the three lists
/// must have one length; an empty list is an error, as in NllLoss.
/// DESIGN.md §14.6.
Variable TripletLoss(const Variable& z, const TripletsPtr& triplets,
                     float margin);

/// The mask regularizers over mask scores m in [0, 1] (E x 1):
///   size_weight · mean(m) + entropy_weight · mean(-m log m - (1-m) log(1-m))
/// with each log's argument clamped at 1e-12, as Log does. One op: the
/// forward keeps the per-entry slope of the entropy term, so the backward
/// is one multiply-add pass. An entropy weight of 0 takes no logs.
/// DESIGN.md §14.6.
Variable MaskRegularizer(const Variable& m, float size_weight,
                         float entropy_weight);

}  // namespace ses::autograd

#endif  // SES_AUTOGRAD_OPS_H_
