#ifndef SES_TESTS_LOSS_CHAINS_H_
#define SES_TESTS_LOSS_CHAINS_H_

// The plain-op chains that the fused loss ops (autograd::TripletLoss,
// autograd::MaskRegularizer) replaced, kept as their test references, and
// the tolerance measure the parity tests use.

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "tensor/tensor.h"

namespace ses::test {

/// Row-wise sqrt(Σ (a - b)² + 1e-9): N x 1.
inline autograd::Variable ChainRowDistance(const autograd::Variable& a,
                                           const autograd::Variable& b) {
  namespace ag = ses::autograd;
  const ag::Variable diff = ag::Sub(a, b);
  return ag::Sqrt(ag::AddScalar(ag::SumRows(ag::Mul(diff, diff)), 1e-9f));
}

/// The triplet margin loss as a chain: three GatherRows, two row distances,
/// the hinge and the mean.
inline autograd::Variable ChainTripletLoss(const autograd::Variable& z,
                                           const autograd::Triplets& t,
                                           float margin) {
  namespace ag = ses::autograd;
  const ag::Variable a = ag::GatherRows(z, t.anchor);
  const ag::Variable d_ap = ChainRowDistance(a, ag::GatherRows(z, t.positive));
  const ag::Variable d_an = ChainRowDistance(a, ag::GatherRows(z, t.negative));
  return ag::MeanAll(ag::Relu(ag::AddScalar(ag::Sub(d_ap, d_an), margin)));
}

/// The mask size and Bernoulli entropy terms as a chain:
///   size_weight · mean(m) + entropy_weight · mean(-m log m - (1-m) log(1-m))
inline autograd::Variable ChainMaskRegularizer(const autograd::Variable& m,
                                               float size_weight,
                                               float entropy_weight) {
  namespace ag = ses::autograd;
  const ag::Variable one_minus = ag::AddScalar(ag::Neg(m), 1.0f);
  const ag::Variable entropy =
      ag::Neg(ag::Add(ag::Mul(m, ag::Log(m)),
                      ag::Mul(one_minus, ag::Log(one_minus))));
  return ag::Add(ag::Scale(ag::MeanAll(m), size_weight),
                 ag::Scale(ag::MeanAll(entropy), entropy_weight));
}

/// Largest |a - b| over the largest |b| (or over 1 when b is all zeros): a
/// gradient's error against the size of the gradient. Infinite when the
/// shapes differ.
inline double MaxDiffOverScale(const tensor::Tensor& a,
                               const tensor::Tensor& b) {
  if (!a.SameShape(b)) return HUGE_VAL;
  double worst = 0.0;
  double scale = 0.0;
  for (int64_t i = 0; i < b.size(); ++i) {
    worst = std::max(worst, static_cast<double>(std::fabs(a[i] - b[i])));
    scale = std::max(scale, static_cast<double>(std::fabs(b[i])));
  }
  return worst / (scale > 0.0 ? scale : 1.0);
}

}  // namespace ses::test

#endif  // SES_TESTS_LOSS_CHAINS_H_
