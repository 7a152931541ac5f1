#include "serve/batch_scheduler.h"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>

#include "obs/anomaly.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/request.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
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

const std::string& E2eSloOp() {
  static const std::string op("sched.e2e");
  return op;
}

const std::string& QueueWaitSloOp() {
  static const std::string op("sched.queue_wait");
  return op;
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

uint64_t PredictDigest(int64_t node, int64_t cls) {
  const int64_t fingerprint[2] = {node, cls};
  return obs::Fnv1a(obs::Fnv1aBegin(), fingerprint, sizeof(fingerprint));
}

/// FNV-1a fingerprint of a completed request's result, for the access log.
uint64_t ResultDigest(const internal::Request& r) {
  switch (r.op) {
    case OpKind::kPredict:
      return PredictDigest(r.node, r.predicted);
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
      degraded_state_(options_.degraded),
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
          "ses.sched.internal_errors")),
      degraded_served_counter_(obs::MetricsRegistry::Get().GetCounter(
          "ses.sched.degraded_served")),
      degraded_mode_gauge_(
          obs::MetricsRegistry::Get().GetGauge("ses.sched.degraded_mode")) {
  SES_CHECK(session_ != nullptr);
  SES_CHECK(options_.max_batch_size >= 1);
  SES_CHECK(options_.flush_deadline_us >= 0);
  SES_CHECK(options_.num_workers >= 1);
  SES_CHECK(options_.max_queue_batches >= 1);
  // Degraded mode is driven by the queue-wait burn rate; without that budget
  // there is no signal and the mode could never engage or recover.
  SES_CHECK(!options_.degraded.enabled || options_.queue_wait_budget_us > 0.0);
  if (options_.degraded.enabled) {
    SES_CHECK(options_.degraded.enter_burn_rate >
              options_.degraded.exit_burn_rate);
    SES_CHECK(options_.degraded.enter_consecutive >= 1);
    SES_CHECK(options_.degraded.exit_consecutive >= 1);
  }
  if (options_.e2e_budget_us > 0.0)
    obs::SloTracker::Get().SetBudget(E2eSloOp(), options_.e2e_budget_us);
  if (options_.queue_wait_budget_us > 0.0)
    obs::SloTracker::Get().SetBudget(
        QueueWaitSloOp(), options_.queue_wait_budget_us,
        options_.queue_wait_target, options_.queue_wait_window);
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
  if (options_.admission != nullptr) {
    const AdmissionDecision decision =
        options_.admission->Admit(req.op, queued_requests_);
    if (!decision.admit) {
      return Future(Reject(req.op, req.trace_id,
                           Status::Overloaded(decision.retry_after_us),
                           decision.reason),
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
  if (degraded_mode_.load(std::memory_order_relaxed)) {
    PredictFuture fut;
    if (TryDegradedPredict(node, &fut)) return fut;
  }
  return Submit<PredictFuture>(OpKind::kPredict, node, 0, submit);
}

LogitsRowFuture BatchScheduler::SubmitLogitsRow(int64_t node,
                                                SubmitOptions submit) {
  return Submit<LogitsRowFuture>(OpKind::kLogitsRow, node, 0, submit);
}

ExplainFuture BatchScheduler::SubmitExplain(int64_t node, int64_t top_k,
                                            SubmitOptions submit) {
  if (degraded_mode_.load(std::memory_order_relaxed)) {
    // Degraded mode sheds Explain outright: it is the recomputable,
    // lowest-priority op, and the cache cannot answer it.
    const uint64_t trace_id = RequestTraceId();
    const Status status =
        stopping_flag_.load(std::memory_order_relaxed)
            ? Reject(OpKind::kExplain, trace_id, Status::ShuttingDown(),
                     "shutting_down")
            : Reject(OpKind::kExplain, trace_id,
                     Status::Overloaded(options_.degraded.retry_after_us),
                     "degraded");
    return ExplainFuture(status, trace_id);
  }
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

bool BatchScheduler::TryDegradedPredict(int64_t node, PredictFuture* out) {
  if (stopping_flag_.load(std::memory_order_relaxed)) {
    // Shutdown outranks degraded serving: a post-Stop Submit must never be
    // answered from the cache.
    const uint64_t trace_id = RequestTraceId();
    *out = PredictFuture(Reject(OpKind::kPredict, trace_id,
                                Status::ShuttingDown(), "shutting_down"),
                         trace_id);
    return true;
  }
  // Every probe_every-th degraded predict goes through the queue as a canary
  // so queue-wait samples keep flowing — without them the burn rate would
  // freeze at its overload value and the mode could never observe recovery.
  const int64_t probe_every = options_.degraded.probe_every;
  const int64_t seq = degraded_seq_.fetch_add(1, std::memory_order_relaxed);
  if (probe_every > 0 && seq % probe_every == 0) return false;
  // Answer from the published snapshot, even while a newer version builds;
  // only a session with nothing published queues.
  const core::InferenceSession::SnapshotPtr snapshot = session_->Current();
  if (snapshot == nullptr) return false;
  const int64_t cls = snapshot->PredictMany({node})[0];
  degraded_served_total_.fetch_add(1, std::memory_order_relaxed);
  degraded_served_counter_.Add(1);
  obs::RequestRecord record;
  record.trace_id = RequestTraceId();
  record.op = SchedOpName(OpKind::kPredict);
  record.reason = "degraded_cache";
  record.cache_hit = true;
  record.digest = PredictDigest(node, cls);
  record.version = snapshot->version;
  obs::PublishRequests(&record, 1);
  *out = PredictFuture(cls, record.trace_id);
  return true;
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
  // Workers live as long as the scheduler: one workspace scope per worker
  // keeps every batched forward drawing tensors from the thread's pool.
  tensor::workspace::Scope pool;
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
      const double burn = ExecuteBatch(batch.get());
      // The flight recorder's auto-dump triggers on the same queue-wait burn
      // signal that drives admission and degraded mode (-1 = no budget).
      if (burn >= 0.0) obs::FlightRecorder::Get().ObserveBurn(burn);
      lock.lock();
      ++stats_.batches;
      stats_.max_batch =
          std::max(stats_.max_batch,
                   static_cast<int64_t>(batch->requests.size()));
      batches_counter_.Add(1);
      if (options_.degraded.enabled && burn >= 0.0 &&
          !forced_degraded_.load(std::memory_order_relaxed)) {
        const bool was = degraded_state_.degraded();
        const bool now_degraded = degraded_state_.Update(burn);
        if (now_degraded != was) {
          degraded_mode_.store(now_degraded, std::memory_order_relaxed);
          degraded_mode_gauge_.Set(now_degraded ? 1.0 : 0.0);
          SES_LOG_WARN << "scheduler " << (now_degraded ? "entered" : "left")
                       << " degraded mode (queue-wait burn rate " << burn
                       << ")";
        }
      }
      // Shed fraction of the submissions seen since the previous batch, for
      // the anomaly watch (counters are mutex_-guarded, so read them here).
      const int64_t shed = shed_total_.load(std::memory_order_relaxed);
      const int64_t d_shed = shed - anomaly_prev_shed_;
      const int64_t d_seen =
          d_shed + (stats_.requests - anomaly_prev_requests_);
      anomaly_prev_shed_ = shed;
      anomaly_prev_requests_ = stats_.requests;
      const double shed_rate =
          d_seen > 0 ? static_cast<double>(d_shed) / d_seen : 0.0;
      // Publish only after the aggregate stats above: a caller whose Get()
      // returned must never observe stats() missing its own batch.
      {
        std::lock_guard<std::mutex> result_lock(batch->mutex);
        batch->done.store(true, std::memory_order_release);
      }
      batch->cv.notify_all();
      // Anomaly sampling runs with mutex_ RELEASED: the first Sample of a
      // series registers the watch's health provider, which takes the health-
      // registry lock — while a concurrent /healthz scrape holds that lock
      // and calls this scheduler's HealthJson, which wants mutex_. Sampling
      // under mutex_ would close that cycle into a deadlock.
      lock.unlock();
      {
        obs::AnomalyWatch& watch = obs::AnomalyWatch::Get();
        watch.Sample("sched.queue_depth", queue_depth_gauge_.Value());
        watch.Sample("sched.e2e_p99_us", e2e_hist_.P99());
        watch.Sample("sched.shed_rate", shed_rate);
        watch.PollProbes();
      }
      lock.lock();
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

double BatchScheduler::ExecuteBatch(internal::BatchState* batch) {
  SES_TRACE_SPAN("sched/batch");
  const auto exec_start = std::chrono::steady_clock::now();
  std::vector<internal::Request>& reqs = batch->requests;
  batch_size_hist_.Observe(static_cast<double>(reqs.size()));
  // Latency scratch, reused across batches and for the end-to-end pass
  // below: the batched Observe/Record calls are what amortize per-request
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
  queue_wait_hist_.ObserveMany(latencies_us.data(), trace_ids.data(),
                               static_cast<int64_t>(latencies_us.size()));
  // Queue wait is recorded for EVERY request — including ones about to be
  // dropped as expired, whose wait is precisely the overload evidence the
  // admission burn-rate signal needs.
  if (options_.queue_wait_budget_us > 0.0)
    obs::SloTracker::Get().RecordMany(
        QueueWaitSloOp(), latencies_us.data(),
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

  // End-to-end latency (enqueue -> results ready) for every request, fed to
  // the histogram and the SLO tracker as one batched pass each. e2e is the
  // queue wait plus the batch's execution time, which is shared by every
  // request in the batch. Failed requests count as SLO errors individually;
  // the common all-ok batch keeps the single batched Record.
  const double exec_us = MicrosBetween(exec_start, exec_end);
  for (double& l : latencies_us) l += exec_us;
  e2e_hist_.ObserveMany(latencies_us.data(), trace_ids.data(),
                        static_cast<int64_t>(latencies_us.size()));
  const bool any_failed = dead > 0 || expired_inflight > 0 ||
                          (!reqs.empty() && !reqs.front().status.ok());
  if (!any_failed) {
    obs::SloTracker::Get().RecordMany(
        E2eSloOp(), latencies_us.data(),
        static_cast<int64_t>(latencies_us.size()));
  } else {
    for (size_t i = 0; i < reqs.size(); ++i)
      obs::SloTracker::Get().Record(E2eSloOp(), latencies_us[i],
                                    !reqs[i].status.ok());
  }

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

  double burn = -1.0;
  if (options_.queue_wait_budget_us > 0.0) {
    burn = obs::SloTracker::Get().Snapshot(QueueWaitSloOp()).burn_rate;
    if (options_.admission != nullptr)
      options_.admission->ObserveBurnRate(burn);
  }
  return burn;
}

void BatchScheduler::ForceDegradedForTest(bool on) {
  forced_degraded_.store(on, std::memory_order_relaxed);
  degraded_mode_.store(on, std::memory_order_relaxed);
  degraded_mode_gauge_.Set(on ? 1.0 : 0.0);
}

void BatchScheduler::Stop() {
  // Unregister first (it is a barrier — see health.h): after this no
  // /healthz scrape can be inside HealthJson when the members go away.
  obs::UnregisterHealthProvider(health_name_);
  // The lock-free flag goes up before the queue flag so the degraded fast
  // path can never cache-serve a Submit that raced past a completed Stop().
  stopping_flag_.store(true, std::memory_order_relaxed);
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
  s.degraded_served = degraded_served_total_.load(std::memory_order_relaxed);
  s.expired = expired_queue_total_.load(std::memory_order_relaxed);
  s.expired_inflight =
      expired_inflight_total_.load(std::memory_order_relaxed);
  s.internal_errors = internal_errors_total_.load(std::memory_order_relaxed);
  s.degraded_entries = degraded_state_.entries();
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
      << ",\"degraded\":" << (degraded() ? "true" : "false")
      << ",\"queued_requests\":" << queued << ",\"requests\":" << s.requests
      << ",\"shed\":" << s.shed << ",\"rejected\":" << s.rejected
      << ",\"expired\":" << (s.expired + s.expired_inflight)
      << ",\"internal_errors\":" << s.internal_errors
      << ",\"degraded_served\":" << s.degraded_served
      << ",\"degraded_entries\":" << s.degraded_entries << ",\"admission\":"
      << (options_.admission != nullptr ? options_.admission->DebugState()
                                        : std::string("null"))
      << "}";
  return out.str();
}

}  // namespace ses::serve
