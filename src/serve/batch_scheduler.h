#ifndef SES_SERVE_BATCH_SCHEDULER_H_
#define SES_SERVE_BATCH_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/inference_session.h"
#include "obs/metrics.h"
#include "robust/fault.h"
#include "serve/status.h"
#include "util/logging.h"

namespace ses::serve {

/// Micro-batching policy and pool shape of a BatchScheduler.
struct SchedulerOptions {
  /// A forming batch is sealed and dispatched as soon as it holds this many
  /// requests (the "full" flush).
  int64_t max_batch_size = 64;
  /// A forming batch older than this is sealed even if not full (the
  /// "deadline" flush) — bounds the latency a lone request can pay for
  /// batching. Measured from the batch's first enqueue.
  int64_t flush_deadline_us = 200;
  /// Fixed worker pool size. One worker is optimal on a single core; more
  /// overlap batch execution with enqueue on larger machines.
  int64_t num_workers = 1;
  /// Sealed batches allowed to queue before Submit* blocks (backpressure).
  int64_t max_queue_batches = 256;
  /// Overload bound on queued requests (forming batch + ready queue); 0 means
  /// no bound. A Predict at or above the bound, and an Explain or logit slice
  /// at or above half of it, is shed at submit as an immediate kOverloaded
  /// rejection whose RetryAfter hint is one batch period (flush_deadline_us).
  /// The check reads the live queue depth, which falls as the workers drain,
  /// so admission resumes as soon as there is room.
  int64_t max_queued_requests = 0;
  /// Deadline applied to requests submitted without one (0 = none).
  double default_deadline_us = 0.0;
  /// Serving fault plan; when empty the scheduler loads $SES_FAULT_SPEC.
  /// Matching is by the scheduler's own sequence numbers: batch seal order
  /// for worker_stall / slow_forward / serve_throw, request accept order for
  /// poison_request.
  robust::FaultPlan fault_plan;
};

namespace internal {

/// One queued request plus its in-place result slot. Which result field is
/// live is determined by `op`.
struct Request {
  OpKind op = OpKind::kPredict;
  int64_t node = 0;
  int64_t top_k = 0;
  uint64_t trace_id = 0;
  int64_t seq = 0;  ///< accept order (fault matching)
  /// Critical-path stage stamps 1 and 2 (submit and admit); the batch holds
  /// seal, and the worker stamps forward-start/-end and resolve at execution.
  /// Submit is taken before the queue lock, admit after admission passes —
  /// their gap is backpressure wait plus admission-control time.
  std::chrono::steady_clock::time_point enqueue_time;
  std::chrono::steady_clock::time_point admit_time;
  std::chrono::steady_clock::time_point deadline;
  bool has_deadline = false;
  Status status;              ///< final per-request outcome
  const char* reason = "";    ///< static-storage failure/shed detail
  int64_t predicted = -1;
  std::vector<float> logits_row;
  core::InferenceSession::Explanation explanation;
};

/// One micro-batch: the unit of queueing, dispatch, and completion. All
/// requests in a batch share a single mutex/cv, so fulfilling B requests
/// costs one lock + one notify_all instead of B promise round-trips.
/// Producers append under the scheduler queue lock until the batch is
/// sealed; a worker fills every result slot and then publishes `done`.
struct BatchState {
  std::vector<Request> requests;
  std::chrono::steady_clock::time_point opened_at;
  /// Bitwise-or of (1 << op) over the requests — lets a worker take the
  /// no-partitioning fast path for single-op batches.
  uint8_t ops_mask = 0;
  bool has_deadlines = false;  ///< any request carries a deadline
  int64_t seq = 0;             ///< seal order (fault matching)
  /// Critical-path stage stamp 3: when SealFormingLocked moved this batch
  /// onto the ready queue. Shared by every request in the batch.
  std::chrono::steady_clock::time_point seal_time;
  std::mutex mutex;
  std::condition_variable cv;
  std::atomic<bool> done{false};
};

int64_t TakePredict(Request& r);
std::vector<float> TakeLogitsRow(Request& r);
core::InferenceSession::Explanation TakeExplain(Request& r);

}  // namespace internal

/// Lightweight future bound to one slot of a micro-batch, or carrying an
/// immediate typed rejection (shed / shutdown) that never touched the queue.
/// Default-constructed futures are invalid; every future a Submit* returns
/// is valid and resolves with a typed Status — rejected, expired, and
/// faulted requests get their code, never a hang.
///
/// Consumption: Wait() blocks for the status without consuming the result;
/// Get(&out) blocks, moves the result out on kOk, and returns the status;
/// Get() is the checked sugar for callers that treat non-kOk as a bug.
template <typename T, T (*Take)(internal::Request&)>
class BatchFuture {
 public:
  BatchFuture() = default;

  bool valid() const { return immediate_ || state_ != nullptr; }

  /// Non-blocking completion probe.
  bool Ready() const {
    return immediate_ ||
           (state_ != nullptr && state_->done.load(std::memory_order_acquire));
  }

  /// Trace-id the request carries from enqueue into the worker's spans.
  uint64_t trace_id() const {
    if (state_ == nullptr) return trace_id_;
    return state_->requests[index_].trace_id;
  }

  /// Blocks until the result is resolved; returns the status WITHOUT
  /// consuming the result, so callers can branch on the code before moving
  /// the value out with Get.
  Status Wait() {
    SES_CHECK(valid());
    if (immediate_) return status_;
    WaitDone();
    return state_->requests[index_].status;
  }

  /// Blocks until resolved, moves the result into *out when the status is
  /// kOk, and returns the status. Consumes the future (one call per future;
  /// `out` may be null to discard the result).
  Status Get(T* out) {
    SES_CHECK(valid());
    if (immediate_) {
      immediate_ = false;
      return status_;
    }
    WaitDone();
    auto state = std::move(state_);
    internal::Request& r = state->requests[index_];
    if (r.status.ok() && out != nullptr) *out = Take(r);
    return r.status;
  }

  /// Blocks until resolved and returns the value; a non-kOk status is a
  /// checked error. The call sites that predate typed statuses (and any
  /// caller submitting without deadlines against a non-shedding scheduler)
  /// keep this contract.
  T Get() {
    T out{};
    const Status status = Get(&out);
    SES_CHECK(status.ok());
    return out;
  }

 private:
  friend class BatchScheduler;
  BatchFuture(std::shared_ptr<internal::BatchState> state, size_t index)
      : state_(std::move(state)), index_(index) {}
  /// Immediate typed rejection (never queued).
  BatchFuture(Status status, uint64_t trace_id)
      : immediate_(true), status_(status), trace_id_(trace_id) {}

  void WaitDone() {
    if (!state_->done.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(state_->mutex);
      state_->cv.wait(lock, [&] {
        return state_->done.load(std::memory_order_acquire);
      });
    }
  }

  std::shared_ptr<internal::BatchState> state_;
  size_t index_ = 0;
  bool immediate_ = false;
  Status status_;
  uint64_t trace_id_ = 0;
};

using PredictFuture = BatchFuture<int64_t, internal::TakePredict>;
using LogitsRowFuture =
    BatchFuture<std::vector<float>, internal::TakeLogitsRow>;
using ExplainFuture = BatchFuture<core::InferenceSession::Explanation,
                                  internal::TakeExplain>;

/// Per-submit knobs.
struct SubmitOptions {
  /// Relative deadline: the request must complete within this many
  /// microseconds of submission or it resolves kDeadlineExceeded — dropped
  /// before the forward when it expires in queue ("doomed-work
  /// elimination"), after it when it expires mid-flight. 0 means "use
  /// SchedulerOptions::default_deadline_us" (which may be none); a negative
  /// value is already expired and deterministically resolves
  /// kDeadlineExceeded without executing.
  double deadline_us = 0.0;
};

/// Micro-batching front end for one InferenceSession.
///
/// Concurrent callers enqueue Predict / logit-slice / Explain requests and
/// get futures back; the scheduler coalesces them into micro-batches (sealed
/// on max_batch_size or flush_deadline_us, whichever comes first) and a fixed
/// worker pool executes each batch against the session's cached per-graph
/// artifacts: all predicts and logit slices in a batch share ONE session lock
/// acquisition and one (memoized, SpMM-backed) forward via PredictMany /
/// GatherLogits, and explains share one top-k scratch via ExplainMany. A
/// batch of B requests therefore costs one gathered readout instead of B
/// locked calls — results are bitwise-identical to the direct path by
/// construction (same kernels over the same memoized logits).
///
/// Overload behavior: one rule, SchedulerOptions::max_queued_requests. A
/// submission that finds the queue at the bound (half the bound for Explain
/// and LogitsRow, the lower-priority ops — see OpKind) is shed as an
/// immediate kOverloaded rejection with a RetryAfter hint. Per-request
/// deadlines bound how long a request may wait: work that is already dead
/// at dequeue is never executed. All of it is typed — no future ever hangs.
///
/// Observability: each request captures the caller's trace-id at enqueue
/// (allocating one if the caller has none); workers adopt it so their spans
/// and access-log entries join the same request. The scheduler feeds
/// `ses.sched.*` metrics — live request-level queue-depth gauge, batch-size
/// / queue-wait / end-to-end histograms, flush-reason counters, shed /
/// rejected / expired counters (by reason and stage) — shed/expiry reasons in
/// the access log, and a /healthz component ("scheduler") with queue and
/// outcome state.
///
/// Request forensics (DESIGN.md §15): every request is stamped at six
/// critical-path stages — submit (enqueue_time, before the queue lock),
/// admit (queue lock held with room in the queue), seal (batch moved to the
/// ready queue), forward-start / forward-end (around batch execution),
/// resolve (results written back). At resolve the worker builds one
/// obs::RequestRecord per request and hands the batch to
/// obs::PublishRequests, which feeds the `ses.sched.stage.*` histograms,
/// the access log's `stages_us`, the per-stage Chrome-trace spans and the
/// FlightRecorder (whose auto-dump fires on a record's queue wait).
/// Rejections publish a record too (access log only).
///
/// Shutdown: Stop() (or the destructor) stops admission, seals the forming
/// batch, and joins the workers only after every queued batch has executed —
/// every future handed out before Stop() is fulfilled. Submissions racing or
/// following Stop() resolve as typed kShuttingDown rejections.
class BatchScheduler {
 public:
  explicit BatchScheduler(core::InferenceSession* session,
                          SchedulerOptions options = {});
  ~BatchScheduler();
  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  PredictFuture SubmitPredict(int64_t node, SubmitOptions submit = {});
  LogitsRowFuture SubmitLogitsRow(int64_t node, SubmitOptions submit = {});
  ExplainFuture SubmitExplain(int64_t node, int64_t top_k,
                              SubmitOptions submit = {});

  /// Streamed submission for pipelined clients: enqueues n predict requests
  /// under ONE queue-lock acquisition and one arrival timestamp (the stream
  /// arrived together), writing one future per request into out[0..n).
  /// Micro-batch formation is unchanged — the stream spills across forming
  /// batches and max_batch_size seals apply as usual, so requests from
  /// concurrent streams still coalesce. Returns the number enqueued; slots
  /// shed by admission or racing Stop() get immediate typed rejection
  /// futures instead (every out[i] is valid either way).
  int64_t SubmitPredictStream(const int64_t* nodes, int64_t n,
                              PredictFuture* out, SubmitOptions submit = {});

  /// Drains the queue and joins the worker pool. Idempotent.
  void Stop();

  const SchedulerOptions& options() const { return options_; }

  struct Stats {
    int64_t requests = 0;          ///< accepted submissions
    int64_t rejected = 0;          ///< typed kShuttingDown rejections
    int64_t shed = 0;              ///< typed kOverloaded rejections
    int64_t expired = 0;           ///< kDeadlineExceeded in queue (pre-exec)
    int64_t expired_inflight = 0;  ///< kDeadlineExceeded mid-flight
    int64_t internal_errors = 0;   ///< kInternal (poison / thrown fault)
    /// Always 0: the scheduler has no cache-answer path. Kept because the
    /// repository benchmark still reports it as `serve.degraded_frac`.
    int64_t degraded_served = 0;
    int64_t batches = 0;           ///< batches executed
    int64_t full_flushes = 0;      ///< seals due to max_batch_size
    int64_t deadline_flushes = 0;  ///< seals due to flush_deadline_us
    int64_t shutdown_flushes = 0;  ///< seals due to Stop()
    int64_t max_batch = 0;         ///< largest executed batch
  };
  Stats stats() const;

 private:
  /// A request of kind `op` stamped at submit: trace id (the caller's, else
  /// a fresh one), enqueue time and absolute deadline.
  internal::Request NewRequest(OpKind op, double deadline_us) const;
  /// Admits `req` into the forming batch and returns its future, or a typed
  /// rejection future from Reject (kShuttingDown / kOverloaded). Caller
  /// holds `lock` on mutex_; it is released only while waiting for queue
  /// room, after which `*admit_time` (stage stamp 2) is re-taken.
  template <typename Future>
  Future AdmitLocked(std::unique_lock<std::mutex>& lock, internal::Request req,
                     std::chrono::steady_clock::time_point* admit_time);
  /// NewRequest + AdmitLocked under one lock acquisition.
  template <typename Future>
  Future Submit(OpKind op, int64_t node, int64_t top_k, SubmitOptions submit);
  /// Resolves a request that never runs (shutdown or shed): counts it, and
  /// publishes its access-log record. Lock-free; returns `status`.
  Status Reject(OpKind op, uint64_t trace_id, Status status,
                const char* reason);
  /// Moves the forming batch onto the ready queue. Caller holds mutex_;
  /// `reason_counter` is one of the flush counters below.
  void SealFormingLocked(int64_t* reason_counter);
  void WorkerLoop();
  /// Executes one sealed batch (no scheduler locks held).
  void ExecuteBatch(internal::BatchState* batch);
  std::string HealthJson() const;

  core::InferenceSession* session_;
  const SchedulerOptions options_;
  robust::FaultPlan fault_plan_;  ///< guarded by fault_mutex_ after ctor
  const bool has_faults_;
  const int64_t serve_delay_us_;  ///< persistent synthetic service cost
  const std::string health_name_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers wait for batches
  std::condition_variable space_cv_;  ///< producers wait for queue room
  std::shared_ptr<internal::BatchState> forming_;
  std::deque<std::shared_ptr<internal::BatchState>> ready_;
  bool stopping_ = false;
  int64_t queued_requests_ = 0;  ///< forming + ready, request-level
  int64_t next_batch_seq_ = 0;
  Stats stats_;

  std::mutex fault_mutex_;  ///< FaultPlan is not internally synchronized

  // Tallies bumped without the scheduler lock: rejections resolve wherever
  // they happen, failures on the workers.
  std::atomic<int64_t> shed_total_{0};
  std::atomic<int64_t> rejected_total_{0};
  std::atomic<int64_t> expired_queue_total_{0};
  std::atomic<int64_t> expired_inflight_total_{0};
  std::atomic<int64_t> internal_errors_total_{0};

  std::vector<std::thread> workers_;

  // Registry instruments, resolved once (registration is the cold path).
  obs::Counter& requests_counter_;
  obs::Counter& batches_counter_;
  obs::Gauge& queue_depth_gauge_;
  obs::Histogram& batch_size_hist_;
  obs::Histogram& queue_wait_hist_;
  obs::Histogram& e2e_hist_;
  obs::Counter& expired_queue_counter_;
  obs::Counter& expired_inflight_counter_;
  obs::Counter& internal_error_counter_;
};

}  // namespace ses::serve

#endif  // SES_SERVE_BATCH_SCHEDULER_H_
