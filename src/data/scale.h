#ifndef SES_DATA_SCALE_H_
#define SES_DATA_SCALE_H_

#include "data/dataset.h"

namespace ses::data {

/// Synthetic million-node benchmark generator (DESIGN.md §16).
///
/// The paper-scale synthetic suites (synthetic.h) top out around a thousand
/// nodes; this generator grows the same recipe — heavy-tailed base graph plus
/// planted labeled motifs with recorded ground-truth edges — to millions of
/// nodes so the serving stack can be exercised past one shard's worth of
/// memory. Properties the scale benchmarks rely on:
///
///  - Power-law degree distribution with a configurable exponent: out-stub
///    counts follow a Pareto tail and targets are drawn by inverse-CDF from
///    power-law node weights, so hubs exist at every size (the skew the
///    partitioner's balance heuristics care about).
///  - Deterministic under `seed`: every node and motif forks its own counted
///    RNG stream, so two runs with equal options produce bitwise-identical
///    datasets (see DatasetDigest) regardless of generation order.
///  - Streaming CSR construction: edges are generated twice from the same
///    per-node streams — once to count degrees, once to fill the adjacency —
///    so peak memory is O(E) CSR arrays, never a multiplicity-laden global
///    edge list. 10M nodes builds in a few GB.
///  - Ground truth stays measurable: house and cycle motifs are planted with
///    their edges recorded in Dataset::gt_motif_edges, exactly like the
///    paper-scale suites, so explanation AUC can be scored at any size.
struct ScaleGraphOptions {
  int64_t num_nodes = 100000;      ///< base nodes; motif nodes are appended
  double powerlaw_exponent = 2.5;  ///< degree-distribution exponent, > 2
  double avg_degree = 8.0;         ///< mean out-stubs per base node
  /// Motif counts; -1 derives one motif per 1000 base nodes (>= 1 each).
  int64_t num_houses = -1;
  int64_t num_cycles = -1;
  int64_t feature_dim = 16;  ///< must hold bias + degree + one-hot label
  uint64_t seed = 0;
  /// Split fractions are small by design: at 1M+ nodes a full 80% train set
  /// would dominate generation time without telling the benchmark anything.
  double train_frac = 0.02;
  double val_frac = 0.01;
};

/// Generates the dataset described above. Node ids: base nodes first, then
/// house nodes (5 per house), then cycle nodes (6 per cycle). Labels:
/// 0 = base, 1/2/3 = house bottom/middle/top, 4 = cycle member (label ids
/// compact when a motif kind is disabled). Features are sparse, 3 nonzeros
/// per node: bias, normalized degree, and a one-hot label channel.
Dataset MakeScaleGraph(const ScaleGraphOptions& options = {});

/// Order-independent FNV-1a fingerprint of everything a model can observe:
/// topology, labels, features, ground-truth edges, and split sizes. Two
/// MakeScaleGraph calls agree on the digest iff they produced the same
/// dataset — the CI determinism double-run compares exactly this.
uint64_t DatasetDigest(const Dataset& ds);

}  // namespace ses::data

#endif  // SES_DATA_SCALE_H_
