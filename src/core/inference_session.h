#ifndef SES_CORE_INFERENCE_SESSION_H_
#define SES_CORE_INFERENCE_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/ses_model.h"

namespace ses::obs {
class RequestScope;
}

namespace ses::core {

/// Optional per-shard overrides a ShardedSession installs on its member
/// sessions (DESIGN.md §16). Default-constructed overrides change nothing.
struct SessionOverrides {
  /// Shard-sliced feature mask M_f (one value per nonzero of the shard's
  /// feature rows, in GatherRows order). Empty = use the model's own mask.
  tensor::Tensor feature_mask_nnz;
  /// Shard-sliced structure mask over the shard's directed support (both
  /// orientations per local edge, then self-loops — DirectedEdges order).
  /// Empty = use the model's own mask.
  tensor::Tensor structure_mask_adj;
};

/// Serving-side view of one trained model over one graph.
///
/// Training rebuilds every per-graph artifact on each forward (edge lists,
/// GCN-normalized aggregation weights, mask constants) because the mask and
/// parameters move between steps. At serving time all of that is frozen, so
/// the session computes each artifact once per *graph version* and publishes
/// it, together with the full-graph logits, as an immutable Snapshot:
///
///  - the message-passing edge list (A + self-loops),
///  - the FeatureInput with the frozen feature mask M_f,
///  - the frozen structure mask over the 1-hop support,
///  - the encoder's precomputed aggregation weights (symmetric GCN
///    normalization / GIN-SAGE weights; undefined for GAT whose attention is
///    input-dependent),
///  - the full-graph logits themselves (PredictNode serves argmax rows out of
///    them).
///
/// Versions (DESIGN.md §8.3). InvalidateGraph() bumps the version, captures
/// the dataset's `features` handle under the session lock, wakes the
/// session's builder thread and returns. The builder always builds the
/// newest version, outside the lock, and publishes it by pointer swap; a
/// publish never replaces a newer snapshot, so published versions only grow.
/// A build reads only the captured features handle plus the graph topology
/// and the model's masks — the topology and the masks must stay unchanged
/// for the session's lifetime; to serve new features, install a new
/// `features` pointer on the dataset and then call InvalidateGraph().
///
/// Reads. Current() is the published snapshot as is: the batch scheduler
/// answers a whole batch from it and never waits for a pending build, so it
/// may answer from version v while v+1 builds. The direct reads (Logits,
/// PredictNode, PredictMany, GatherLogits, ForwardLogits) read their own
/// writes: each waits until the published version reaches the version at
/// call entry. A cold session (nothing published, no bump yet) builds
/// inline on the first read. A build that throws leaves the previous
/// snapshot published; readers waiting for that version get the exception,
/// and so do later reads of it until the next InvalidateGraph().
///
/// All forwards run under autograd::InferenceGuard (tape-free) and are
/// bitwise identical to the taped eval path — the same tensor kernels run in
/// the same order. Explanation queries read the frozen structure mask
/// directly and never touch the encoder.
class InferenceSession {
 public:
  /// The per-graph forward inputs. Each member is a shared handle.
  struct Artifacts {
    autograd::EdgeListPtr edges;
    nn::FeatureInput input;
    autograd::Variable adj_mask;
    autograd::Variable cached_aggregation;
  };

  /// One published graph version: its artifacts and the full-graph logits
  /// computed from them. Immutable; a reader holding the pointer keeps the
  /// version alive while newer ones publish.
  struct Snapshot {
    int64_t version = 0;
    Artifacts artifacts;
    tensor::Tensor logits;

    /// Argmax class of each of `nodes` (first max wins). Element i is
    /// bitwise-equal to PredictNode(nodes[i]) at this version.
    std::vector<int64_t> PredictMany(const std::vector<int64_t>& nodes) const;
    /// Rows `nodes` of the logits as a B x C tensor.
    tensor::Tensor GatherLogits(const std::vector<int64_t>& nodes) const;
  };
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  /// Serves a trained SesModel: masked forward + mask-based explanations.
  /// Both the model and the dataset must outlive the session. `overrides`
  /// customizes the artifacts for shard-local serving (see SessionOverrides).
  InferenceSession(const SesModel* model, const data::Dataset* ds,
                   SessionOverrides overrides = {});

  /// Serves a bare trained encoder (no masks; ExplainNode returns empty).
  InferenceSession(const models::Encoder* encoder, const data::Dataset* ds,
                   SessionOverrides overrides = {});

  /// Joins the builder thread (an in-flight build finishes first).
  ~InferenceSession();
  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Requests a new graph version built from the dataset's current
  /// `features` handle, and returns without waiting for the build. Starts
  /// the builder thread on first use.
  void InvalidateGraph();
  int64_t graph_version() const { return graph_version_.load(); }

  /// The published snapshot, or null before the first build. Never waits.
  /// A non-null return counts one `ses.infer.cache_hits`: the caller answers
  /// from memoized logits.
  SnapshotPtr Current();

  /// The snapshot at the version of call entry or newer: returns at once
  /// when it is published (a cache hit), else builds it (cold session) or
  /// waits for the builder (a cache miss); the outcome and the version are
  /// noted on `request` (null ok). Rethrows a failed build.
  SnapshotPtr Latest(obs::RequestScope* request = nullptr);

  /// Full-graph class logits at the latest version.
  tensor::Tensor Logits();

  /// Argmax class of `node`, served from the memoized logits.
  int64_t PredictNode(int64_t node);

  /// Argmax classes for a batch of target nodes: one snapshot for the whole
  /// batch, then a single gathered argmax pass. Element i is bitwise-equal
  /// to PredictNode(nodes[i]).
  std::vector<int64_t> PredictMany(const std::vector<int64_t>& nodes);

  /// Logit-slice API: rows `nodes` of the memoized full-graph logits as a
  /// B x C tensor (row i = logits of nodes[i], bitwise-equal to the same row
  /// of Logits()).
  tensor::Tensor GatherLogits(const std::vector<int64_t>& nodes);

  /// Top-k most important k-hop neighbors of `node` under the frozen
  /// structure mask, most important first. Empty for bare-encoder sessions
  /// (no mask to read).
  struct Explanation {
    std::vector<int64_t> neighbors;
    std::vector<float> scores;
  };
  Explanation ExplainNode(int64_t node, int64_t top_k) const;

  /// Batched ExplainNode: one request scope for the batch, and the top-k
  /// selection scratch is reused across nodes so a warm explain batch does
  /// not allocate per request. Element i equals ExplainNode(nodes[i], top_k).
  std::vector<Explanation> ExplainMany(const std::vector<int64_t>& nodes,
                                       int64_t top_k) const;

  /// Un-memoized tape-free forward through the latest snapshot's artifacts —
  /// what a serving benchmark times as the steady-state fast path. Runs
  /// outside the session lock.
  tensor::Tensor ForwardLogits();

  /// Per-session read outcomes (also mirrored into the metrics registry as
  /// `ses.infer.cache_hits` / `ses.infer.cache_misses`): a hit answered
  /// from published logits, a miss built or waited for its version.
  struct Stats {
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;
  };
  Stats stats() const {
    return {cache_hits_.load(), cache_misses_.load()};
  }

 private:
  /// Waits for (or, cold, builds) the version at call entry; `*waited` says
  /// whether it was not already published.
  SnapshotPtr Await(bool* waited);
  /// Builds the newest requested version outside the lock and publishes it
  /// (or its failure). Caller holds `lock` on `mutex_` and no build runs.
  void BuildLocked(std::unique_lock<std::mutex>& lock);
  /// Artifacts + forward of one version from the captured `features`.
  SnapshotPtr Build(int64_t version,
                    std::shared_ptr<const tensor::SparseMatrix> features) const;
  void BuilderLoop();
  /// Tape-free forward over `artifacts`.
  tensor::Tensor RunForward(const Artifacts& artifacts) const;
  /// ExplainNode body with caller-owned top-k scratch (batch reuse).
  void ExplainInto(int64_t node, int64_t top_k, std::vector<int64_t>* scratch,
                   std::vector<int64_t>* selected, Explanation* out) const;

  const models::Encoder* encoder_ = nullptr;
  const SesModel* model_ = nullptr;  ///< null for bare-encoder sessions
  const data::Dataset* ds_ = nullptr;
  const SessionOverrides overrides_;

  std::atomic<int64_t> graph_version_{0};  ///< written under mutex_
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};

  mutable std::mutex mutex_;
  std::condition_variable published_cv_;  ///< a build published or failed
  std::condition_variable build_cv_;      ///< builder: work or stop
  /// `ds_->features` as captured at construction or the last bump.
  std::shared_ptr<const tensor::SparseMatrix> features_;
  SnapshotPtr current_;
  bool building_ = false;  ///< one build at a time, inline or builder
  int64_t failed_version_ = -1;  ///< newest version whose build threw
  std::exception_ptr failure_;   ///< that build's exception
  bool stopping_ = false;
  std::thread builder_;  ///< started by the first InvalidateGraph()
};

}  // namespace ses::core

#endif  // SES_CORE_INFERENCE_SESSION_H_
