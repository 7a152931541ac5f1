#ifndef SES_CORE_SHARDED_SESSION_H_
#define SES_CORE_SHARDED_SESSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/inference_session.h"
#include "graph/partition.h"

namespace ses::core {

struct ShardedSessionOptions {
  /// Partition shape. The default halo_hops (3) is the two-layer encoders'
  /// k-hop dependency depth plus one ring of degree padding — see
  /// graph::PartitionOptions and DESIGN.md §16.
  graph::PartitionOptions partition;
};

/// Data-parallel serving across graph shards (DESIGN.md §16).
///
/// The graph is partitioned once (greedy edge-cut, graph::Partitioner); each
/// shard gets its own InferenceSession over the subgraph induced on its
/// owned nodes plus a (k+1)-hop halo, with the halo's feature rows gathered
/// from the global dataset before any shard forward — the "halo exchange".
/// Predict/logits queries route by the node→shard map and execute entirely
/// inside one shard; Explain reads the model's global k-hop mask through the
/// owner shard's session.
///
/// Parity contract: shard-local logits of OWNED nodes are bitwise-identical
/// to the whole-graph InferenceSession's, because (a) the halo closure makes
/// every degree an owned logit's GCN normalization reads exact, (b) shard
/// node lists are ascending so the global→local relabeling is monotone and
/// per-row accumulation order is preserved, and (c) the CSR SpMM kernel
/// accumulates each row in edge order at every graph size, so a shard and
/// the whole-graph session run the same operation sequence per row. The
/// scale tests assert this equality on every graph they touch.
class ShardedSession {
 public:
  /// Shards a trained SesModel: the global feature / structure masks are
  /// sliced per shard (see SessionOverrides) so masked forwards shard too.
  ShardedSession(const SesModel* model, const data::Dataset* ds,
                 ShardedSessionOptions options = {});

  /// Shards a bare trained encoder (no masks; ExplainNode returns empty).
  ShardedSession(const models::Encoder* encoder, const data::Dataset* ds,
                 ShardedSessionOptions options = {});

  int64_t num_shards() const {
    return static_cast<int64_t>(sessions_.size());
  }
  const graph::Partition& partition() const { return partition_; }
  /// Owning shard of a global node.
  int64_t ShardOf(int64_t node) const;
  /// Row of a global node inside its owning shard's local graph.
  int64_t LocalIdOf(int64_t node) const;
  InferenceSession* shard_session(int64_t s) {
    return sessions_[static_cast<size_t>(s)].get();
  }
  const data::Dataset& shard_dataset(int64_t s) const {
    return shard_data_[static_cast<size_t>(s)];
  }

  /// Argmax class of a GLOBAL node id, served by its owning shard only.
  int64_t PredictNode(int64_t node);
  /// Batched predict: requests are grouped per shard (one snapshot read per
  /// shard touched), results in input order.
  std::vector<int64_t> PredictMany(const std::vector<int64_t>& nodes);
  /// Logit rows of GLOBAL node ids as a B x C tensor, grouped per shard.
  tensor::Tensor GatherLogits(const std::vector<int64_t>& nodes);
  /// Top-k explanation of a GLOBAL node id via the owner shard's session
  /// (the structure mask is global, so no id translation is needed).
  InferenceSession::Explanation ExplainNode(int64_t node, int64_t top_k) const;

  /// Re-runs the halo feature exchange from the global dataset and bumps
  /// every shard session's version; each shard builds off the request path
  /// from the features it captures at the bump (DESIGN.md §16.3). Call after
  /// installing new global features, from one thread at a time.
  void InvalidateGraph();

  struct Stats {
    int64_t halo_rows = 0;      ///< ghost feature rows replicated per exchange
    int64_t exchanged_nnz = 0;  ///< feature nonzeros moved by the last exchange
    int64_t exchanges = 0;      ///< halo exchanges performed
  };
  Stats stats() const { return stats_; }

 private:
  void Build();
  /// Gathers every shard's owned + halo feature rows out of the global
  /// dataset (the k-hop dependency closure a shard-local forward reads) and
  /// publishes the `ses.shard.*` exchange metrics.
  void ExchangeHaloFeatures();

  const SesModel* model_ = nullptr;  ///< null for bare-encoder sessions
  const models::Encoder* encoder_ = nullptr;
  const data::Dataset* ds_ = nullptr;
  ShardedSessionOptions options_;
  graph::Partition partition_;
  std::vector<data::Dataset> shard_data_;  ///< sessions point into these
  std::vector<std::unique_ptr<InferenceSession>> sessions_;
  Stats stats_;
};

}  // namespace ses::core

#endif  // SES_CORE_SHARDED_SESSION_H_
