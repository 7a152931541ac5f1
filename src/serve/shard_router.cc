#include "serve/shard_router.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace ses::serve {

ShardRouter::ShardRouter(core::ShardedSession* session,
                         SchedulerOptions options)
    : session_(session) {
  SES_CHECK(session_ != nullptr);
  schedulers_.reserve(static_cast<size_t>(session_->num_shards()));
  for (int64_t s = 0; s < session_->num_shards(); ++s)
    schedulers_.push_back(std::make_unique<BatchScheduler>(
        session_->shard_session(s), options));
}

PredictFuture ShardRouter::SubmitPredict(int64_t node, SubmitOptions submit) {
  const int64_t s = session_->ShardOf(node);
  return schedulers_[static_cast<size_t>(s)]->SubmitPredict(
      session_->LocalIdOf(node), submit);
}

LogitsRowFuture ShardRouter::SubmitLogitsRow(int64_t node,
                                             SubmitOptions submit) {
  const int64_t s = session_->ShardOf(node);
  return schedulers_[static_cast<size_t>(s)]->SubmitLogitsRow(
      session_->LocalIdOf(node), submit);
}

ExplainFuture ShardRouter::SubmitExplain(int64_t node, int64_t top_k,
                                         SubmitOptions submit) {
  // Global id on purpose: the k-hop structure mask the explain reads is
  // global model state (see ShardedSession::ExplainNode).
  return schedulers_[static_cast<size_t>(session_->ShardOf(node))]
      ->SubmitExplain(node, top_k, submit);
}

int64_t ShardRouter::SubmitPredictStream(const int64_t* nodes, int64_t n,
                                         PredictFuture* out,
                                         SubmitOptions submit) {
  const int64_t num_shards = this->num_shards();
  std::vector<std::vector<int64_t>> local(static_cast<size_t>(num_shards));
  std::vector<std::vector<int64_t>> position(static_cast<size_t>(num_shards));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t s = session_->ShardOf(nodes[i]);
    local[static_cast<size_t>(s)].push_back(session_->LocalIdOf(nodes[i]));
    position[static_cast<size_t>(s)].push_back(i);
  }
  int64_t enqueued = 0;
  std::vector<PredictFuture> futures;
  for (int64_t s = 0; s < num_shards; ++s) {
    const auto& rows = local[static_cast<size_t>(s)];
    if (rows.empty()) continue;
    futures.assign(rows.size(), PredictFuture());
    enqueued += schedulers_[static_cast<size_t>(s)]->SubmitPredictStream(
        rows.data(), static_cast<int64_t>(rows.size()), futures.data(),
        submit);
    for (size_t j = 0; j < rows.size(); ++j)
      out[position[static_cast<size_t>(s)][j]] = std::move(futures[j]);
  }
  return enqueued;
}

void ShardRouter::Stop() {
  for (auto& scheduler : schedulers_) scheduler->Stop();
}

BatchScheduler::Stats ShardRouter::stats() const {
  BatchScheduler::Stats total;
  for (const auto& scheduler : schedulers_) {
    const BatchScheduler::Stats s = scheduler->stats();
    total.requests += s.requests;
    total.rejected += s.rejected;
    total.shed += s.shed;
    total.expired += s.expired;
    total.expired_inflight += s.expired_inflight;
    total.internal_errors += s.internal_errors;
    total.batches += s.batches;
    total.full_flushes += s.full_flushes;
    total.deadline_flushes += s.deadline_flushes;
    total.shutdown_flushes += s.shutdown_flushes;
    total.max_batch = std::max(total.max_batch, s.max_batch);
  }
  return total;
}

}  // namespace ses::serve
