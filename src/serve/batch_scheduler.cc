#include "serve/batch_scheduler.h"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>

#include "obs/health.h"
#include "obs/request.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace ses::serve {

namespace {

double MicrosBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
                 .count()) *
         1e-3;
}

const char* SchedOpName(OpKind op) {
  switch (op) {
    case OpKind::kPredict: return "sched.predict";
    case OpKind::kLogitsRow: return "sched.logits_row";
    case OpKind::kExplain: return "sched.explain";
  }
  return "sched.unknown";
}

robust::FaultPlan ResolveFaultPlan(const robust::FaultPlan& plan) {
  return plan.empty() ? robust::FaultPlan::FromEnv() : plan;
}

std::string HealthNameForInstance() {
  static std::atomic<int> counter{0};
  const int instance = counter.fetch_add(1, std::memory_order_relaxed);
  return instance == 0 ? "scheduler" : "scheduler-" + std::to_string(instance);
}

/// Synthetic per-request service cost (serve_delay fault): a busy-wait, not
/// a sleep, so the emulated work consumes CPU the way a real forward would
/// and overload saturates compute instead of timers.
void BusyWaitUs(int64_t us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// The caller's trace id, so the request joins the caller's spans, else a
/// fresh one.
uint64_t RequestTraceId() {
  const uint64_t caller_id = obs::CurrentTraceId();
  return caller_id != 0 ? caller_id : obs::AllocateTraceId();
}

/// FNV-1a fingerprint of a completed request's result, for the access log.
uint64_t ResultDigest(const internal::Request& r) {
  switch (r.op) {
    case OpKind::kPredict: {
      const int64_t fingerprint[2] = {r.node, r.predicted};
      return obs::Fnv1a(obs::Fnv1aBegin(), fingerprint, sizeof(fingerprint));
    }
    case OpKind::kLogitsRow:
      return obs::Fnv1a(obs::Fnv1aBegin(), r.logits_row.data(),
                        r.logits_row.size() * sizeof(float));
    case OpKind::kExplain: {
      const uint64_t h = obs::Fnv1a(obs::Fnv1aBegin(), &r.node, sizeof(r.node));
      return obs::Fnv1a(h, r.explanation.neighbors.data(),
                        r.explanation.neighbors.size() * sizeof(int64_t));
    }
  }
  return 0;
}

}  // namespace

namespace internal {

int64_t TakePredict(Request& r) { return r.predicted; }

std::vector<float> TakeLogitsRow(Request& r) {
  return std::move(r.logits_row);
}

core::InferenceSession::Explanation TakeExplain(Request& r) {
  return std::move(r.explanation);
}

}  // namespace internal

BatchScheduler::BatchScheduler(core::InferenceSession* session,
                               SchedulerOptions options)
    : session_(session),
      options_(std::move(options)),
      fault_plan_(ResolveFaultPlan(options_.fault_plan)),
      has_faults_(!fault_plan_.empty()),
      serve_delay_us_(fault_plan_.ServeDelayUs()),
      health_name_(HealthNameForInstance()),
      requests_counter_(
          obs::MetricsRegistry::Get().GetCounter("ses.sched.requests")),
      batches_counter_(
          obs::MetricsRegistry::Get().GetCounter("ses.sched.batches")),
      queue_depth_gauge_(
          obs::MetricsRegistry::Get().GetGauge("ses.sched.queue_depth")),
      batch_size_hist_(obs::MetricsRegistry::Get().GetHistogram(
          "ses.sched.batch_size",
          obs::Histogram::ExponentialEdges(1.0, 2.0, 12))),
      queue_wait_hist_(obs::MetricsRegistry::Get().GetHistogram(
          "ses.sched.queue_wait_us", obs::Histogram::DefaultLatencyEdgesUs())),
      e2e_hist_(obs::MetricsRegistry::Get().GetHistogram(
          "ses.sched.e2e_us", obs::Histogram::DefaultLatencyEdgesUs())),
      expired_queue_counter_(obs::MetricsRegistry::Get().GetCounter(
          "ses.sched.expired", {{"stage", "queue"}})),
      expired_inflight_counter_(obs::MetricsRegistry::Get().GetCounter(
          "ses.sched.expired", {{"stage", "inflight"}})),
      internal_error_counter_(obs::MetricsRegistry::Get().GetCounter(
          "ses.sched.internal_errors")) {
  SES_CHECK(session_ != nullptr);
  SES_CHECK(options_.max_batch_size >= 1);
  SES_CHECK(options_.flush_deadline_us >= 0);
  SES_CHECK(options_.num_workers >= 1);
  SES_CHECK(options_.max_queue_batches >= 1);
  SES_CHECK(options_.max_queued_requests >= 0);
  obs::RegisterHealthProvider(health_name_, [this] { return HealthJson(); });
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int64_t i = 0; i < options_.num_workers; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

BatchScheduler::~BatchScheduler() { Stop(); }

internal::Request BatchScheduler::NewRequest(OpKind op,
                                            double deadline_us) const {
  internal::Request req;
  req.op = op;
  req.trace_id = RequestTraceId();
  req.enqueue_time = std::chrono::steady_clock::now();
  const double effective_deadline =
      deadline_us != 0.0 ? deadline_us : options_.default_deadline_us;
  if (effective_deadline != 0.0) {
    req.has_deadline = true;
    req.deadline =
        req.enqueue_time +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::micro>(effective_deadline));
  }
  return req;
}

template <typename Future>
Future BatchScheduler::AdmitLocked(std::unique_lock<std::mutex>& lock,
                                   internal::Request req,
                                   std::chrono::steady_clock::time_point*
                                       admit_time) {
  if (!stopping_ &&
      static_cast<int64_t>(ready_.size()) >= options_.max_queue_batches) {
    space_cv_.wait(lock, [&] {
      return stopping_ ||
             static_cast<int64_t>(ready_.size()) < options_.max_queue_batches;
    });
    *admit_time = std::chrono::steady_clock::now();
  }
  if (stopping_) {
    return Future(Reject(req.op, req.trace_id, Status::ShuttingDown(),
                         "shutting_down"),
                  req.trace_id);
  }
  if (options_.max_queued_requests > 0) {
    // Lowest priority first: Explain and LogitsRow are recomputable and off
    // the interactive path, so they shed at half the bound.
    const bool low_priority = req.op != OpKind::kPredict;
    const int64_t bound = low_priority ? options_.max_queued_requests / 2
                                       : options_.max_queued_requests;
    if (queued_requests_ >= bound) {
      return Future(
          Reject(req.op, req.trace_id,
                 Status::Overloaded(options_.flush_deadline_us),
                 low_priority ? "queue_depth_low_priority" : "queue_depth"),
          req.trace_id);
    }
  }
  // Stage stamp 2 (admit): submit -> admit is the time the producer spent
  // getting the queue lock and room in the queue. Requests admitted
  // back-to-back under one lock acquisition share the stamp, so the stream
  // path pays no per-request clock read.
  req.admit_time = *admit_time;
  if (!forming_) {
    forming_ = std::make_shared<internal::BatchState>();
    forming_->requests.reserve(static_cast<size_t>(options_.max_batch_size));
  }
  internal::BatchState& batch = *forming_;
  if (batch.requests.empty()) {
    batch.opened_at = req.enqueue_time;
    // First request of a fresh batch: wake a worker so one arms the
    // flush-deadline timer for it.
    work_cv_.notify_one();
  }
  batch.ops_mask |= static_cast<uint8_t>(1u << static_cast<unsigned>(req.op));
  batch.has_deadlines |= req.has_deadline;
  req.seq = stats_.requests;
  batch.requests.push_back(std::move(req));
  Future future(forming_, batch.requests.size() - 1);
  ++stats_.requests;
  ++queued_requests_;
  queue_depth_gauge_.Set(static_cast<double>(queued_requests_));
  if (static_cast<int64_t>(batch.requests.size()) >= options_.max_batch_size)
    SealFormingLocked(&stats_.full_flushes);
  return future;
}

template <typename Future>
Future BatchScheduler::Submit(OpKind op, int64_t node, int64_t top_k,
                              SubmitOptions submit) {
  internal::Request req = NewRequest(op, submit.deadline_us);
  req.node = node;
  req.top_k = top_k;
  std::unique_lock<std::mutex> lock(mutex_);
  auto admit_time = std::chrono::steady_clock::now();
  return AdmitLocked<Future>(lock, std::move(req), &admit_time);
}

Status BatchScheduler::Reject(OpKind op, uint64_t trace_id, Status status,
                              const char* reason) {
  const bool shutdown = status.code == StatusCode::kShuttingDown;
  (shutdown ? rejected_total_ : shed_total_)
      .fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::Get()
      .GetCounter(shutdown ? "ses.sched.rejected" : "ses.sched.shed",
                  {{"reason", reason}})
      .Add(1);
  obs::RequestRecord record;
  record.trace_id = trace_id;
  record.op = SchedOpName(op);
  record.error = true;
  record.reason = reason;
  obs::PublishRequests(&record, 1);
  return status;
}

PredictFuture BatchScheduler::SubmitPredict(int64_t node,
                                            SubmitOptions submit) {
  return Submit<PredictFuture>(OpKind::kPredict, node, 0, submit);
}

LogitsRowFuture BatchScheduler::SubmitLogitsRow(int64_t node,
                                                SubmitOptions submit) {
  return Submit<LogitsRowFuture>(OpKind::kLogitsRow, node, 0, submit);
}

ExplainFuture BatchScheduler::SubmitExplain(int64_t node, int64_t top_k,
                                            SubmitOptions submit) {
  return Submit<ExplainFuture>(OpKind::kExplain, node, top_k, submit);
}

int64_t BatchScheduler::SubmitPredictStream(const int64_t* nodes, int64_t n,
                                            PredictFuture* out,
                                            SubmitOptions submit) {
  if (n <= 0) return 0;
  // The stream arrived together: one submit stamp and deadline for all.
  const internal::Request arrival =
      NewRequest(OpKind::kPredict, submit.deadline_us);
  int64_t enqueued = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  auto admit_time = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < n; ++i) {
    internal::Request req = arrival;
    req.node = nodes[i];
    if (i > 0) req.trace_id = RequestTraceId();
    out[i] = AdmitLocked<PredictFuture>(lock, std::move(req), &admit_time);
    enqueued += out[i].state_ != nullptr;
  }
  return enqueued;
}

void BatchScheduler::SealFormingLocked(int64_t* reason_counter) {
  ++(*reason_counter);
  // The registry counter advances once per seal (covering the whole batch)
  // to keep the per-submit fast path down to one clock read + one push.
  requests_counter_.Add(static_cast<int64_t>(forming_->requests.size()));
  forming_->seq = next_batch_seq_++;
  // Stage stamp 3 (seal): admit -> seal is the batching delay this request
  // paid waiting for the batch to fill or hit its flush deadline.
  forming_->seal_time = std::chrono::steady_clock::now();
  ready_.push_back(std::move(forming_));
  forming_.reset();
  work_cv_.notify_one();
}

void BatchScheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!ready_.empty()) {
      std::shared_ptr<internal::BatchState> batch = std::move(ready_.front());
      ready_.pop_front();
      queued_requests_ -= static_cast<int64_t>(batch->requests.size());
      queue_depth_gauge_.Set(static_cast<double>(queued_requests_));
      space_cv_.notify_one();
      lock.unlock();
      if (has_faults_) {
        int64_t stall_ms = 0;
        bool stall = false;
        {
          std::lock_guard<std::mutex> fault_lock(fault_mutex_);
          stall = fault_plan_.TakeWorkerStall(batch->seq, &stall_ms);
        }
        if (stall)
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      }
      ExecuteBatch(batch.get());
      lock.lock();
      ++stats_.batches;
      stats_.max_batch =
          std::max(stats_.max_batch,
                   static_cast<int64_t>(batch->requests.size()));
      batches_counter_.Add(1);
      // Publish only after the aggregate stats above: a caller whose Get()
      // returned must never observe stats() missing its own batch.
      {
        std::lock_guard<std::mutex> result_lock(batch->mutex);
        batch->done.store(true, std::memory_order_release);
      }
      batch->cv.notify_all();
      continue;
    }
    if (forming_ && !forming_->requests.empty()) {
      const auto deadline =
          forming_->opened_at +
          std::chrono::microseconds(options_.flush_deadline_us);
      if (std::chrono::steady_clock::now() >= deadline) {
        SealFormingLocked(&stats_.deadline_flushes);
        continue;
      }
      work_cv_.wait_until(lock, deadline);
      continue;
    }
    if (stopping_) return;
    work_cv_.wait(lock);
  }
}

void BatchScheduler::ExecuteBatch(internal::BatchState* batch) {
  SES_TRACE_SPAN("sched/batch");
  const auto exec_start = std::chrono::steady_clock::now();
  std::vector<internal::Request>& reqs = batch->requests;
  batch_size_hist_.Observe(static_cast<double>(reqs.size()));
  // Latency scratch, reused across batches and for the end-to-end pass
  // below: the batched ObserveMany calls are what amortize per-request
  // bookkeeping to O(1) contended ops per batch.
  thread_local std::vector<double> latencies_us;
  thread_local std::vector<int64_t> node_scratch;
  thread_local std::vector<uint64_t> trace_ids;
  latencies_us.resize(reqs.size());
  trace_ids.resize(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    latencies_us[i] = MicrosBetween(reqs[i].enqueue_time, exec_start);
    trace_ids[i] = reqs[i].trace_id;
  }
  // Queue wait is recorded for EVERY request, including ones about to be
  // dropped as expired: their wait is the overload evidence.
  queue_wait_hist_.ObserveMany(latencies_us.data(), trace_ids.data(),
                               static_cast<int64_t>(latencies_us.size()));

  // Injected serving faults (one fault-plan lock per batch when armed).
  bool throw_fault = false;
  bool slow_forward = false;
  int64_t slow_ms = 0;
  int64_t poisoned = 0;
  if (has_faults_) {
    std::lock_guard<std::mutex> fault_lock(fault_mutex_);
    slow_forward = fault_plan_.TakeSlowForward(batch->seq, &slow_ms);
    throw_fault = fault_plan_.TakeServeThrow(batch->seq);
    for (internal::Request& r : reqs) {
      if (fault_plan_.TakePoisonRequest(r.seq)) {
        r.status = Status::Internal();
        r.reason = "poisoned";
        ++poisoned;
      }
    }
  }

  // Doomed-work elimination: a request already past its deadline is dropped
  // BEFORE the forward — executing it would burn capacity on an answer the
  // client has stopped waiting for, which is how overload collapses.
  int64_t doomed = 0;
  if (batch->has_deadlines) {
    for (internal::Request& r : reqs) {
      if (r.status.ok() && r.has_deadline && r.deadline <= exec_start) {
        r.status = Status::DeadlineExceeded();
        r.reason = "expired_queue";
        ++doomed;
      }
    }
  }
  // Slow-forward fault runs AFTER elimination, so it models a forward that
  // became slow — live requests can still expire mid-flight below.
  if (slow_forward)
    std::this_thread::sleep_for(std::chrono::milliseconds(slow_ms));

  const int64_t dead = poisoned + doomed;
  const int64_t live =
      static_cast<int64_t>(reqs.size()) - dead;
  if (serve_delay_us_ > 0 && live > 0) BusyWaitUs(serve_delay_us_ * live);

  constexpr uint8_t kPredictBit =
      1u << static_cast<unsigned>(OpKind::kPredict);
  constexpr uint8_t kLogitsOps =
      kPredictBit | (1u << static_cast<unsigned>(OpKind::kLogitsRow));
  // One snapshot answers every predict and logit slice of the batch. A
  // pending build never blocks it: the batch reads the published version,
  // and only a session with nothing published builds or waits.
  core::InferenceSession::SnapshotPtr snapshot;
  try {
    if (throw_fault)
      throw std::runtime_error("injected serve_throw fault");
    if (live > 0 && (batch->ops_mask & kLogitsOps) != 0) {
      snapshot = session_->Current();
      if (snapshot == nullptr) snapshot = session_->Latest();
    }
    if (batch->ops_mask == kPredictBit && dead == 0) {
      // Homogeneous predict batch (the steady-state serving shape): no
      // partitioning, identity scatter.
      node_scratch.resize(reqs.size());
      for (size_t i = 0; i < reqs.size(); ++i) node_scratch[i] = reqs[i].node;
      const std::vector<int64_t> classes = snapshot->PredictMany(node_scratch);
      for (size_t i = 0; i < reqs.size(); ++i) reqs[i].predicted = classes[i];
    } else if (live > 0) {
      // Partition the live requests by op. Predicts and logit slices each
      // become ONE gathered readout of the snapshot; explains group by top_k
      // so each group shares a selection scratch. Dead slots (expired /
      // poisoned) are skipped.
      std::vector<int64_t> predict_nodes, predict_idx;
      std::vector<int64_t> slice_nodes, slice_idx;
      std::vector<std::pair<int64_t, std::vector<int64_t>>> explain_groups;
      for (size_t i = 0; i < reqs.size(); ++i) {
        if (!reqs[i].status.ok()) continue;
        switch (reqs[i].op) {
          case OpKind::kPredict:
            predict_nodes.push_back(reqs[i].node);
            predict_idx.push_back(static_cast<int64_t>(i));
            break;
          case OpKind::kLogitsRow:
            slice_nodes.push_back(reqs[i].node);
            slice_idx.push_back(static_cast<int64_t>(i));
            break;
          case OpKind::kExplain: {
            auto group = std::find_if(
                explain_groups.begin(), explain_groups.end(),
                [&](const auto& g) { return g.first == reqs[i].top_k; });
            if (group == explain_groups.end()) {
              explain_groups.push_back({reqs[i].top_k, {}});
              group = explain_groups.end() - 1;
            }
            group->second.push_back(static_cast<int64_t>(i));
            break;
          }
        }
      }

      if (!predict_nodes.empty()) {
        const std::vector<int64_t> classes =
            snapshot->PredictMany(predict_nodes);
        for (size_t i = 0; i < predict_idx.size(); ++i)
          reqs[static_cast<size_t>(predict_idx[i])].predicted = classes[i];
      }
      if (!slice_nodes.empty()) {
        const tensor::Tensor rows = snapshot->GatherLogits(slice_nodes);
        for (size_t i = 0; i < slice_idx.size(); ++i) {
          internal::Request& r = reqs[static_cast<size_t>(slice_idx[i])];
          const float* row = rows.RowPtr(static_cast<int64_t>(i));
          r.logits_row.assign(row, row + rows.cols());
        }
      }
      for (const auto& [top_k, idx] : explain_groups) {
        std::vector<int64_t> nodes;
        nodes.reserve(idx.size());
        for (int64_t i : idx)
          nodes.push_back(reqs[static_cast<size_t>(i)].node);
        std::vector<core::InferenceSession::Explanation> exs =
            session_->ExplainMany(nodes, top_k);
        for (size_t i = 0; i < idx.size(); ++i)
          reqs[static_cast<size_t>(idx[i])].explanation = std::move(exs[i]);
      }
    }
  } catch (const std::exception& e) {
    // The worker must survive anything a batch throws: every still-pending
    // request resolves kInternal, the batch completes, the loop continues.
    int64_t failed = 0;
    for (internal::Request& r : reqs) {
      if (!r.status.ok()) continue;
      r.status = Status::Internal();
      r.reason = "exception";
      ++failed;
    }
    internal_errors_total_.fetch_add(failed, std::memory_order_relaxed);
    internal_error_counter_.Add(failed);
    SES_LOG_WARN << "batch " << batch->seq << " failed (" << failed
                 << " requests resolve kInternal): " << e.what();
  }

  // Completion-time deadline check: the result may exist, but the contract
  // is "within the deadline" — a mid-flight expiry (slow forward, stalled
  // worker) still resolves kDeadlineExceeded.
  const auto exec_end = std::chrono::steady_clock::now();
  int64_t expired_inflight = 0;
  if (batch->has_deadlines) {
    for (internal::Request& r : reqs) {
      if (r.status.ok() && r.has_deadline && r.deadline < exec_end) {
        r.status = Status::DeadlineExceeded();
        r.reason = "expired_inflight";
        ++expired_inflight;
      }
    }
  }
  if (doomed > 0) {
    expired_queue_total_.fetch_add(doomed, std::memory_order_relaxed);
    expired_queue_counter_.Add(doomed);
  }
  if (expired_inflight > 0) {
    expired_inflight_total_.fetch_add(expired_inflight,
                                      std::memory_order_relaxed);
    expired_inflight_counter_.Add(expired_inflight);
  }
  if (poisoned > 0) {
    internal_errors_total_.fetch_add(poisoned, std::memory_order_relaxed);
    internal_error_counter_.Add(poisoned);
  }

  // End-to-end latency (enqueue -> results ready) for every request, in one
  // batched pass: the queue wait plus the batch's execution time, which is
  // shared by every request in the batch.
  const double exec_us = MicrosBetween(exec_start, exec_end);
  for (double& l : latencies_us) l += exec_us;
  e2e_hist_.ObserveMany(latencies_us.data(), trace_ids.data(),
                        static_cast<int64_t>(latencies_us.size()));

  // ---- Request forensics (DESIGN.md §15) ----
  // Stage stamp 6 (resolve): results are written back and aggregate
  // accounting is done; publishing the records is resolve overhead charged
  // to the NEXT batch, not to these requests.
  const auto resolve_time = std::chrono::steady_clock::now();
  // Only the access log reads digests: skip hashing results while it is
  // closed.
  const bool digest = obs::AccessLog::Get().active();
  thread_local std::vector<obs::RequestRecord> records;
  records.resize(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const internal::Request& r = reqs[i];
    records[i] = {.trace_id = r.trace_id,
                  .op = SchedOpName(r.op),
                  .reason = r.reason,
                  .error = !r.status.ok(),
                  .has_stages = true,
                  .digest = digest && r.status.ok() ? ResultDigest(r) : 0,
                  .version = snapshot != nullptr && r.status.ok() &&
                                     r.op != OpKind::kExplain
                                 ? snapshot->version
                                 : -1,
                  .stamps = {r.enqueue_time, r.admit_time, batch->seal_time,
                             exec_start, exec_end, resolve_time}};
  }
  obs::PublishRequests(records.data(), static_cast<int64_t>(records.size()));
  // Completion (`done` + notify) is published by WorkerLoop after it has
  // folded this batch into the aggregate stats under the scheduler mutex.
}

void BatchScheduler::Stop() {
  // Unregister first (it is a barrier — see health.h): after this no
  // /healthz scrape can be inside HealthJson when the members go away.
  obs::UnregisterHealthProvider(health_name_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    if (forming_ && !forming_->requests.empty())
      SealFormingLocked(&stats_.shutdown_flushes);
    forming_.reset();
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
}

BatchScheduler::Stats BatchScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.shed = shed_total_.load(std::memory_order_relaxed);
  s.rejected = rejected_total_.load(std::memory_order_relaxed);
  s.expired = expired_queue_total_.load(std::memory_order_relaxed);
  s.expired_inflight =
      expired_inflight_total_.load(std::memory_order_relaxed);
  s.internal_errors = internal_errors_total_.load(std::memory_order_relaxed);
  return s;
}

std::string BatchScheduler::HealthJson() const {
  const Stats s = stats();
  bool stopping;
  int64_t queued;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping = stopping_;
    queued = queued_requests_;
  }
  std::ostringstream out;
  out << "{\"stopping\":" << (stopping ? "true" : "false")
      << ",\"queued_requests\":" << queued
      << ",\"max_queued_requests\":" << options_.max_queued_requests
      << ",\"requests\":" << s.requests
      << ",\"shed\":" << s.shed << ",\"rejected\":" << s.rejected
      << ",\"expired\":" << (s.expired + s.expired_inflight)
      << ",\"internal_errors\":" << s.internal_errors << "}";
  return out.str();
}

}  // namespace ses::serve
