#ifndef SES_CORE_INFERENCE_SESSION_H_
#define SES_CORE_INFERENCE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
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
/// the session computes each artifact once per *graph version* and replays
/// warm queries against the cache:
///
///  - the message-passing edge list (A + self-loops),
///  - the FeatureInput with the frozen feature mask M_f,
///  - the frozen structure mask over the 1-hop support,
///  - the encoder's precomputed aggregation weights (symmetric GCN
///    normalization / GIN-SAGE weights; undefined for GAT whose attention is
///    input-dependent),
///  - the full-graph logits themselves (memoized; PredictNode serves argmax
///    rows out of them).
///
/// All forwards run under autograd::InferenceGuard (tape-free) and are
/// bitwise identical to the taped eval path — the same tensor kernels run in
/// the same order. Queries are thread-safe: artifact (re)builds and the
/// logits memo are mutex-guarded, warm reads copy out under the lock.
/// Explanation queries read the frozen structure mask directly and never
/// touch the encoder.
class InferenceSession {
 public:
  /// Serves a trained SesModel: masked forward + mask-based explanations.
  /// Both the model and the dataset must outlive the session. `overrides`
  /// customizes the artifacts for shard-local serving (see SessionOverrides).
  InferenceSession(const SesModel* model, const data::Dataset* ds,
                   SessionOverrides overrides = {});

  /// Serves a bare trained encoder (no masks; ExplainNode returns empty).
  InferenceSession(const models::Encoder* encoder, const data::Dataset* ds,
                   SessionOverrides overrides = {});

  /// Marks every cached artifact stale. Call after mutating the graph,
  /// features, or masks; the next query rebuilds under the new version.
  void InvalidateGraph() { graph_version_.fetch_add(1); }
  int64_t graph_version() const { return graph_version_.load(); }

  /// Full-graph class logits, memoized per graph version.
  tensor::Tensor Logits();

  /// Argmax class of `node`, served from the memoized logits.
  int64_t PredictNode(int64_t node);

  /// Cache-only PredictNode: answers from the memoized logits when they are
  /// warm for the CURRENT graph version, and returns false (without running
  /// any forward) otherwise. This is the degraded-mode serving path — under
  /// overload the scheduler answers warm predicts from here instead of
  /// queueing them. When it returns true, `*cls` is bitwise-equal to
  /// PredictNode(node).
  bool TryPredictCached(int64_t node, int64_t* cls);

  /// Argmax classes for a batch of target nodes: one lock acquisition and one
  /// (memoized) forward for the whole batch, then a single gathered argmax
  /// pass — the readout the batch scheduler amortizes B requests onto.
  /// Element i is bitwise-equal to PredictNode(nodes[i]).
  std::vector<int64_t> PredictMany(const std::vector<int64_t>& nodes);

  /// Logit-slice API: rows `nodes` of the memoized full-graph logits as a
  /// B x C tensor (row i = logits of nodes[i], bitwise-equal to the same row
  /// of Logits()). Like PredictMany, costs one lock + one forward per batch.
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

  /// Un-memoized tape-free forward through the cached per-graph artifacts —
  /// what a serving benchmark times as the steady-state fast path.
  tensor::Tensor ForwardLogits();

  /// Per-session memo outcomes (also mirrored into the metrics registry as
  /// `ses.infer.cache_hits` / `ses.infer.cache_misses`).
  struct Stats {
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;
  };
  Stats stats() const {
    return {cache_hits_.load(), cache_misses_.load()};
  }

  /// The SpMM kernel variant serving the current graph version (e.g.
  /// "csr_avx2"), chosen once per version inside the artifact rebuild by the
  /// nnz heuristic and exported as `ses.kernel.autotune{op="spmm",
  /// variant=...}`. Empty until the first query builds the artifacts.
  /// Deterministic given identical graph statistics (the choice is a pure
  /// function of the graph stats, the encoder's hidden width, and the active
  /// SIMD tier); variants at one tier are bitwise-equal, so it never changes
  /// outputs.
  std::string spmm_variant() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spmm_variant_ == nullptr ? std::string() : spmm_variant_;
  }

 private:
  /// Rebuilds the per-graph artifacts if the version moved. Caller holds
  /// `mutex_`.
  void EnsureArtifactsLocked();
  /// Ensures the memoized logits match the current artifacts, recording one
  /// cache hit or miss against `request` (null ok). Caller holds `mutex_`.
  /// Returns the memoized logits.
  const tensor::Tensor& EnsureLogitsLocked(obs::RequestScope* request);
  /// ExplainNode body with caller-owned top-k scratch (batch reuse).
  void ExplainInto(int64_t node, int64_t top_k, std::vector<int64_t>* scratch,
                   std::vector<int64_t>* selected, Explanation* out) const;
  /// The per-graph forward inputs. Each member is a shared handle, so a
  /// copy taken under `mutex_` stays valid for a forward that runs outside
  /// it while a rebuild replaces `artifacts_`.
  struct Artifacts {
    autograd::EdgeListPtr edges;
    nn::FeatureInput input;
    autograd::Variable adj_mask;
    autograd::Variable cached_aggregation;
  };
  /// Tape-free forward over `artifacts`.
  tensor::Tensor RunForward(const Artifacts& artifacts) const;

  const models::Encoder* encoder_ = nullptr;
  const SesModel* model_ = nullptr;  ///< null for bare-encoder sessions
  const data::Dataset* ds_ = nullptr;
  const SessionOverrides overrides_;

  std::atomic<int64_t> graph_version_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};

  mutable std::mutex mutex_;
  int64_t artifact_version_ = -1;  ///< version the artifacts were built at
  Artifacts artifacts_;
  int64_t logits_version_ = -1;  ///< version the memoized logits match
  tensor::Tensor logits_;
  /// Static-storage variant name from kernels::SpmmVariantName (null before
  /// the first artifact build).
  const char* spmm_variant_ = nullptr;
};

}  // namespace ses::core

#endif  // SES_CORE_INFERENCE_SESSION_H_
