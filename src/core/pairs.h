#ifndef SES_CORE_PAIRS_H_
#define SES_CORE_PAIRS_H_

#include "autograd/ops.h"
#include "graph/khop.h"
#include "graph/sampling.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace ses::core {

/// Flattened anchor/positive/negative triplets produced by Algorithm 1. Row
/// j of the phase-2 triplet batch is (anchor[j], positive[j], negative[j]);
/// phase 2 shares the lists with the triplet loss by shared_ptr.
using PosNegPairs = autograd::Triplets;

/// Algorithm 1 — Construction of Positive-Negative Pairs.
///
/// For every node i: sort its k-hop neighbors by structure-mask weight
/// (Â^(k) = M̂_s · A^(k)), keep the top `sample_ratio` fraction as the
/// positive set S^p(i), and draw an equal number of negatives S^n(i) from
/// P_n(i). `structure_mask` holds one weight per k-hop pair in the order of
/// the k-hop CSR table: node i's pairs start at khop.PairOffset(i).
PosNegPairs ConstructPairs(const graph::KHopAdjacency& khop,
                           const tensor::Tensor& structure_mask,
                           const graph::NegativeSets& negatives,
                           double sample_ratio, util::Rng* rng);

}  // namespace ses::core

#endif  // SES_CORE_PAIRS_H_
