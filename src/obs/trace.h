#ifndef SES_OBS_TRACE_H_
#define SES_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ses::obs {

namespace internal {
/// Global tracing switch. Read inline on every span construction so the
/// disabled path is a single relaxed load + branch (no allocation, no call).
extern std::atomic<bool> g_tracing_enabled;
}  // namespace internal

/// One completed span. `label` must be a pointer with static storage duration
/// (string literals); spans never copy the text.
struct TraceEvent {
  const char* label = nullptr;
  uint64_t start_ns = 0;  ///< relative to the process trace epoch
  uint64_t dur_ns = 0;
  /// Request trace-id active on the thread when the span opened (see
  /// obs/request.h); 0 outside any request.
  uint64_t trace_id = 0;
  uint32_t tid = 0;   ///< small sequential thread id (util::ThreadId)
  uint16_t depth = 0; ///< nesting depth at the time the span was open

  /// Kernel spans (recorded by obs::KernelScope) additionally carry their
  /// variant and the caller-declared work estimate; the Chrome-trace
  /// exporter emits them as span args. flops stays negative on plain spans.
  const char* variant = nullptr;
  double flops = -1.0;
  double bytes = 0.0;

  bool IsKernel() const { return flops >= 0.0; }
};

/// Aggregated statistics for one span label (merged by string content across
/// threads and translation units).
struct LabelStats {
  std::string label;
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t min_ns = 0;
  uint64_t max_ns = 0;

  double MeanNs() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / count;
  }
  double TotalMillis() const { return static_cast<double>(total_ns) / 1e6; }
};

/// Turns span recording on/off at runtime. Default: off.
void EnableTracing(bool on);
inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Discards every recorded event. Only call at a quiescent point (no spans
/// open on any thread); intended for tests and between bench repetitions.
void ResetTracing();

/// RAII span. Construction is a no-op (not even a clock read) while tracing
/// is disabled; when enabled, completion appends one TraceEvent to a
/// thread-local lock-free buffer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* label) {
    if (internal::g_tracing_enabled.load(std::memory_order_relaxed))
      Begin(label);
  }
  ~ScopedSpan() {
    if (label_ != nullptr) End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void Begin(const char* label);  // out of line: only runs when enabled
  void End();

  const char* label_ = nullptr;  ///< null => tracing was off at entry
  uint64_t start_ns_ = 0;
  uint64_t trace_id_ = 0;  ///< request id captured at Begin
};

/// Merged copy of every completed span across all threads, in no particular
/// global order (per-thread order is preserved). Safe to call while other
/// threads keep recording: it reads each buffer up to its published size.
/// Returns nothing when a fatal-signal handler calls it on a thread it
/// interrupted while that thread held the trace registry's lock (waiting
/// would deadlock).
std::vector<TraceEvent> SnapshotEvents();

/// Per-label aggregates of every span recorded since the last ResetTracing,
/// sorted by descending total time. Keeps running totals, so each call folds
/// only the events recorded since the previous one: a periodic /metrics
/// scrape costs what was recorded in between, not the run length. Returns
/// nothing in the same crash case as SnapshotEvents.
std::vector<LabelStats> AggregateSpanStats();

/// Current nesting depth of the calling thread (test support).
int CurrentSpanDepth();

/// Records an already-measured span — start/duration computed by the caller
/// on the trace-epoch timebase (internal::TraceNowNs) — onto the calling
/// thread's buffer. Used for retroactive attribution: the batch scheduler
/// stamps critical-path stage timestamps as a request flows through and
/// emits them as spans only at resolve time, when the request's full story
/// is known. No-op while tracing is disabled. `label` must have static
/// storage duration.
void RecordManualSpan(const char* label, uint64_t start_ns, uint64_t dur_ns,
                      uint64_t trace_id);

namespace internal {
/// KernelScope support (kernel_scope.cc): a raw span frame on the calling
/// thread's buffer. Push bumps the nesting depth and returns the request
/// trace-id captured at open; Pop fills tid/depth/trace_id into `ev` and
/// records it. Must be strictly paired per thread.
uint64_t PushSpanFrame();
void PopSpanFrameAndRecord(uint64_t trace_id, TraceEvent* ev);
/// Nanoseconds since the process trace epoch (the timebase of every
/// TraceEvent.start_ns).
uint64_t TraceNowNs();
/// Converts an already-taken steady_clock reading to the trace-epoch
/// timebase without a second clock read — for hot paths (RequestScope's
/// destructor) that have just measured their own latency.
uint64_t TraceNsFromSteady(std::chrono::steady_clock::time_point tp);
}  // namespace internal

}  // namespace ses::obs

#define SES_OBS_CONCAT_INNER(a, b) a##b
#define SES_OBS_CONCAT(a, b) SES_OBS_CONCAT_INNER(a, b)

/// Opens a span covering the rest of the enclosing scope.
/// `label` must be a string literal (or otherwise outlive the program).
#define SES_TRACE_SPAN(label) \
  ::ses::obs::ScopedSpan SES_OBS_CONCAT(ses_span_, __LINE__)(label)

#endif  // SES_OBS_TRACE_H_
