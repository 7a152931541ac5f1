#ifndef SES_OBS_REQUEST_H_
#define SES_OBS_REQUEST_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "obs/trace.h"

namespace ses::obs {

namespace internal {
extern thread_local uint64_t t_current_trace_id;
}  // namespace internal

/// Trace-id of the request active on the calling thread; 0 outside any
/// request. Span recording reads this at open time, so every span that runs
/// inside a RequestScope carries the request's id into the Chrome trace.
inline uint64_t CurrentTraceId() { return internal::t_current_trace_id; }

/// One request's outcome, built once where the request resolves and read by
/// every per-request sink through PublishRequests (DESIGN.md §15.2).
///
/// The six stamps follow the critical path and never decrease. A scheduled
/// request stamps each stage (`has_stages`). A direct-path request is one
/// forward: submit = admit = seal = forward-start, forward-end = resolve. A
/// request rejected at submit without running (shed, shutdown) leaves every
/// stamp unset (`timed()` false).
struct RequestRecord {
  using Clock = std::chrono::steady_clock;
  enum Stage {
    kSubmit,
    kAdmit,
    kSeal,
    kForwardStart,
    kForwardEnd,
    kResolve,
    kNumStages
  };
  /// JSON key of each stage, in critical-path order.
  static constexpr const char* kStageNames[kNumStages] = {
      "submit", "admit", "seal", "forward_start", "forward_end", "resolve"};

  uint64_t trace_id = 0;
  const char* op = "";      ///< static-storage op name ("infer.predict", ...)
  const char* reason = "";  ///< static-storage error/shed reason ("" = none)
  bool error = false;
  bool cache_hit = false;   ///< direct path: answered from memoized logits
  bool has_stages = false;  ///< scheduler-completed: all six stamps are real
  uint64_t digest = 0;      ///< FNV-1a digest of the result (0 = unset)
  /// Graph version of the snapshot that answered (-1 = unknown).
  int64_t version = -1;
  std::array<Clock::time_point, kNumStages> stamps{};

  /// Microseconds from submit to `stage`.
  double OffsetUs(int stage) const {
    return std::chrono::duration<double, std::micro>(stamps[stage] -
                                                     stamps[kSubmit])
        .count();
  }
  double e2e_us() const { return OffsetUs(kResolve); }
  bool timed() const { return stamps[kResolve] != Clock::time_point{}; }
  /// `reason`, or "ok" / "error" by outcome when unset, so downstream joins
  /// (jq, the CI forensics stage) never hit a missing key.
  const char* outcome() const {
    return reason != nullptr && reason[0] != '\0' ? reason
                                                   : (error ? "error" : "ok");
  }
};

/// Feeds every per-request sink from `n` records (DESIGN.md §15.2):
/// - the flight recorder sees every timed record;
/// - the access log, when open, writes one line per record;
/// - records with stages also feed the five `ses.sched.stage.*_us`
///   histograms (one observation each, tagged with the trace id) and, while
///   tracing, five `sched/stage/*` spans inside a `sched/complete` span.
/// With the access log closed and tracing off, a record costs the flight
/// recorder's floor check plus its share of the histogram passes, and
/// nothing allocates per record.
void PublishRequests(const RequestRecord* records, int64_t n);

/// Process-wide JSONL access log: one line per published request. Disabled
/// by default: Record is a relaxed atomic load until Open installs a sink.
class AccessLog {
 public:
  static AccessLog& Get();

  /// Opens (truncates) `path` as the log sink. Returns false and logs on
  /// failure.
  bool Open(const std::string& path);
  /// Flushes and removes the sink.
  void Close();
  /// Flushes buffered lines to disk (crash-path support; cheap when closed).
  void Flush();
  bool active() const { return active_.load(std::memory_order_relaxed); }

  void Record(const RequestRecord& record) {
    if (active()) RecordSlow(record);
  }

  /// Serializes one record as a single-line JSON object (exposed for
  /// tests). `latency_us` is submit to forward-end; `version` appears only
  /// when known; scheduled records add `stages_us`, the offsets of the five
  /// later stamps from submit.
  static std::string ToJson(const RequestRecord& record);

 private:
  AccessLog() = default;
  void RecordSlow(const RequestRecord& record);

  std::atomic<bool> active_{false};
  std::mutex mutex_;  ///< guards sink_
  std::shared_ptr<std::ostream> sink_;
};

/// 64-bit FNV-1a, the digest the access log uses to fingerprint results.
inline uint64_t Fnv1a(uint64_t hash, const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}
inline uint64_t Fnv1aBegin() { return 0xcbf29ce484222325ull; }

/// RAII request context. The outermost scope on a thread allocates a fresh
/// monotonic trace-id, publishes it thread-locally (so spans and nested
/// scopes inherit it), opens one span named after the op, and on destruction
/// publishes one direct-path RequestRecord. Nested scopes reuse the enclosing
/// id and stay silent: one request, one record.
///
/// Latency is only measured (two clock reads) while the access log is open;
/// with it closed a scope costs a TLS id bump and a few relaxed loads,
/// keeping the warm predict path fast.
class RequestScope {
 public:
  explicit RequestScope(const char* op);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  uint64_t trace_id() const { return trace_id_; }
  /// True for the outermost scope — the one that owns logging.
  bool owner() const { return owner_; }

  void NoteCacheHit(bool hit) { cache_hit_ = hit; }
  void NoteError() { error_ = true; }
  void SetDigest(uint64_t digest) { digest_ = digest; }
  void SetVersion(int64_t version) { version_ = version; }

 private:
  static uint64_t Acquire(uint64_t* prev, bool* owner);

  const char* op_;
  uint64_t prev_id_ = 0;
  bool owner_ = false;
  bool measured_ = false;  ///< clock reads on: access log live
  uint64_t trace_id_;  ///< initialized via Acquire, before span_
  ScopedSpan span_;    ///< opens after the id is published
  std::chrono::steady_clock::time_point start_;
  bool cache_hit_ = false;
  bool error_ = false;
  uint64_t digest_ = 0;
  int64_t version_ = -1;
};

/// Total requests started (test support; also the source of trace-ids).
uint64_t RequestsStarted();

/// Draws a fresh trace-id from the same monotonic source RequestScope uses,
/// WITHOUT publishing it on the calling thread. For producers that hand work
/// to another thread (the batch scheduler): allocate at enqueue, carry the id
/// with the request, and adopt it on the worker with ScopedTraceId so the
/// worker's spans join the same request.
uint64_t AllocateTraceId();

/// RAII adoption of an existing trace-id on the current thread. Spans opened
/// (and RequestScopes entered) inside the scope inherit `trace_id` exactly as
/// if the request had originated here; the previous id is restored on exit.
/// Adopting 0 is a no-op scope (useful when the producer had no id).
class ScopedTraceId {
 public:
  explicit ScopedTraceId(uint64_t trace_id)
      : prev_(internal::t_current_trace_id) {
    if (trace_id != 0) internal::t_current_trace_id = trace_id;
  }
  ~ScopedTraceId() { internal::t_current_trace_id = prev_; }
  ScopedTraceId(const ScopedTraceId&) = delete;
  ScopedTraceId& operator=(const ScopedTraceId&) = delete;

 private:
  uint64_t prev_;
};

}  // namespace ses::obs

#endif  // SES_OBS_REQUEST_H_
