#ifndef SES_SERVE_SHARD_ROUTER_H_
#define SES_SERVE_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/sharded_session.h"
#include "serve/batch_scheduler.h"

namespace ses::serve {

/// Micro-batching front end for a ShardedSession: one BatchScheduler per
/// shard, requests routed by the node→shard map, so batches form and seal
/// per shard and a single predict only ever touches its own shard's session
/// lock and memoized logits (DESIGN.md §16).
///
/// Node ids are GLOBAL; the router translates Predict/LogitsRow submissions
/// to shard-local rows before enqueueing (Explain passes the global id
/// through — the structure mask is global model state). Every per-scheduler
/// behavior — the queue bound, deadlines, typed futures — applies per shard
/// unchanged (each shard enforces its own max_queued_requests), and results are bitwise-equal to
/// ShardedSession's direct calls by the same argument that makes one
/// scheduler bitwise-equal to its InferenceSession.
class ShardRouter {
 public:
  /// One scheduler per shard, each built from a copy of `options`.
  ShardRouter(core::ShardedSession* session, SchedulerOptions options = {});

  PredictFuture SubmitPredict(int64_t node, SubmitOptions submit = {});
  LogitsRowFuture SubmitLogitsRow(int64_t node, SubmitOptions submit = {});
  ExplainFuture SubmitExplain(int64_t node, int64_t top_k,
                              SubmitOptions submit = {});

  /// Streamed predicts: the stream is split per shard and each sub-stream is
  /// enqueued under that shard scheduler's single lock acquisition, futures
  /// written back in input order. Returns the number enqueued (shed slots
  /// still get valid typed-rejection futures, as with SubmitPredictStream).
  int64_t SubmitPredictStream(const int64_t* nodes, int64_t n,
                              PredictFuture* out, SubmitOptions submit = {});

  /// Stops every shard scheduler (drains queues, joins workers). Idempotent.
  void Stop();

  int64_t num_shards() const {
    return static_cast<int64_t>(schedulers_.size());
  }
  BatchScheduler* shard_scheduler(int64_t s) {
    return schedulers_[static_cast<size_t>(s)].get();
  }

  /// Element-wise sum of every shard scheduler's Stats (max_batch is a max;
  /// degraded_served stays 0).
  BatchScheduler::Stats stats() const;

 private:
  core::ShardedSession* session_;
  std::vector<std::unique_ptr<BatchScheduler>> schedulers_;
};

}  // namespace ses::serve

#endif  // SES_SERVE_SHARD_ROUTER_H_
