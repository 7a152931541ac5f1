#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <unordered_map>

#include "obs/request.h"
#include "util/logging.h"

namespace ses::obs {

std::atomic<bool> internal::g_tracing_enabled{false};

namespace {

std::chrono::steady_clock::time_point TraceEpoch() {
  // The first caller pins the trace epoch, so Chrome-trace timestamps start
  // near zero.
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

// Pins the epoch during this translation unit's dynamic initialization:
// epoch-relative conversions subtract the epoch in unsigned arithmetic, so a
// steady_clock stamp taken before the pin (e.g. a batch sealed before the
// first span fired) would otherwise wrap to ~2^64 ns.
const struct TraceEpochPinner {
  TraceEpochPinner() { TraceEpoch(); }
} g_trace_epoch_pinner;

uint64_t NowNs() {
  // Steady-clock nanoseconds relative to the trace epoch.
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - TraceEpoch())
          .count());
}

constexpr size_t kChunkCap = 4096;

/// Append-only chunk list. The owning thread writes events then publishes
/// them with a release store of `size_`; readers acquire `size_` and walk the
/// chunk chain, so concurrent snapshots see a consistent prefix without any
/// lock on the recording path.
struct Chunk {
  TraceEvent events[kChunkCap];
  std::atomic<Chunk*> next{nullptr};
};

class ThreadBuffer {
 public:
  ThreadBuffer() : head_(new Chunk()), tail_(head_) {}

  void Record(const TraceEvent& ev) {
    if (pos_ == kChunkCap) {
      Chunk* c = new Chunk();
      tail_->next.store(c, std::memory_order_release);
      tail_ = c;
      pos_ = 0;
    }
    tail_->events[pos_++] = ev;
    size_.fetch_add(1, std::memory_order_release);
  }

  /// Calls fn(event) on the published events from index `first` on, oldest
  /// first; returns the published size it read up to.
  template <class Fn>
  size_t VisitFrom(size_t first, Fn&& fn) const {
    const size_t size = size_.load(std::memory_order_acquire);
    size_t base = 0;
    for (const Chunk* c = head_; c != nullptr && base < size;
         c = c->next.load(std::memory_order_acquire), base += kChunkCap) {
      const size_t end = std::min(size, base + kChunkCap);
      for (size_t i = std::max(first, base); i < end; ++i)
        fn(c->events[i - base]);
    }
    return size;
  }

  /// Drops every published event. Only safe when the owning thread is not
  /// recording (see ResetTracing contract).
  void Reset() {
    Chunk* c = head_->next.load(std::memory_order_acquire);
    while (c != nullptr) {
      Chunk* next = c->next.load(std::memory_order_acquire);
      delete c;
      c = next;
    }
    head_->next.store(nullptr, std::memory_order_release);
    tail_ = head_;
    pos_ = 0;
    size_.store(0, std::memory_order_release);
    folded = 0;
  }

  int depth = 0;
  /// Events already in SpanTotals() (guarded by g_registry_mutex).
  size_t folded = 0;

 private:
  Chunk* head_;
  Chunk* tail_;
  size_t pos_ = 0;  ///< events used in `tail_`
  std::atomic<size_t> size_{0};
};

std::mutex g_registry_mutex;
// True on the thread that holds g_registry_mutex. A fatal-signal flush that
// interrupts that thread must not wait for the lock its own thread holds.
thread_local bool t_holds_registry = false;

/// g_registry_mutex, marked as held by the calling thread.
class RegistryLock {
 public:
  RegistryLock() : lock_(g_registry_mutex) { t_holds_registry = true; }
  ~RegistryLock() { t_holds_registry = false; }
  RegistryLock(const RegistryLock&) = delete;
  RegistryLock& operator=(const RegistryLock&) = delete;

 private:
  std::lock_guard<std::mutex> lock_;
};

std::vector<ThreadBuffer*>& Registry() {
  static std::vector<ThreadBuffer*>* r = new std::vector<ThreadBuffer*>();
  return *r;
}

/// Running totals of every folded event, keyed by label pointer, so each
/// AggregateSpanStats call (one per /metrics scrape) folds only the events
/// recorded since the last one. Guarded by g_registry_mutex.
std::unordered_map<const char*, LabelStats>& SpanTotals() {
  static auto* totals = new std::unordered_map<const char*, LabelStats>();
  return *totals;
}

void AddToStats(LabelStats* s, uint64_t count, uint64_t total_ns,
                uint64_t min_ns, uint64_t max_ns) {
  s->min_ns = s->count == 0 ? min_ns : std::min(s->min_ns, min_ns);
  s->max_ns = std::max(s->max_ns, max_ns);
  s->count += count;
  s->total_ns += total_ns;
}

/// Buffers are registered once and intentionally never freed: snapshots may
/// outlive the threads that produced the events, and the registry keeps them
/// reachable (so leak checkers stay quiet).
ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto* b = new ThreadBuffer();
    RegistryLock lock;
    Registry().push_back(b);
    return b;
  }();
  return buffer;
}

}  // namespace

void EnableTracing(bool on) {
  internal::g_tracing_enabled.store(on, std::memory_order_relaxed);
}

void ResetTracing() {
  RegistryLock lock;
  for (ThreadBuffer* b : Registry()) b->Reset();
  SpanTotals().clear();
}

void ScopedSpan::Begin(const char* label) {
  label_ = label;
  // Captured at open, not close: a RequestScope member span must keep its id
  // even if the request's thread-local slot is restored first during
  // destruction.
  trace_id_ = CurrentTraceId();
  ++LocalBuffer()->depth;
  start_ns_ = NowNs();  // last: excludes buffer setup from the measurement
}

void ScopedSpan::End() {
  const uint64_t end_ns = NowNs();
  ThreadBuffer* buffer = LocalBuffer();
  --buffer->depth;
  TraceEvent ev;
  ev.label = label_;
  ev.start_ns = start_ns_;
  ev.dur_ns = end_ns - start_ns_;
  ev.trace_id = trace_id_;
  ev.tid = util::ThreadId();
  ev.depth = static_cast<uint16_t>(buffer->depth);
  buffer->Record(ev);
}

std::vector<TraceEvent> SnapshotEvents() {
  std::vector<TraceEvent> out;
  if (t_holds_registry) return out;  // a crash flush interrupted the holder
  RegistryLock lock;
  for (const ThreadBuffer* b : Registry())
    b->VisitFrom(0, [&out](const TraceEvent& ev) { out.push_back(ev); });
  return out;
}

std::vector<LabelStats> AggregateSpanStats() {
  if (t_holds_registry) return {};  // a crash flush interrupted the holder
  // The same text from two translation units can sit at two addresses, so
  // the per-pointer totals merge by content.
  std::unordered_map<std::string, LabelStats> by_label;
  {
    RegistryLock lock;
    auto& totals = SpanTotals();
    for (ThreadBuffer* b : Registry())
      b->folded = b->VisitFrom(b->folded, [&totals](const TraceEvent& ev) {
        AddToStats(&totals[ev.label], 1, ev.dur_ns, ev.dur_ns, ev.dur_ns);
      });
    for (const auto& [label, part] : totals) {
      LabelStats& s = by_label[label];
      AddToStats(&s, part.count, part.total_ns, part.min_ns, part.max_ns);
    }
  }
  std::vector<LabelStats> out;
  out.reserve(by_label.size());
  for (auto& [label, stats] : by_label) {
    stats.label = label;
    out.push_back(std::move(stats));
  }
  std::sort(out.begin(), out.end(),
            [](const LabelStats& a, const LabelStats& b) {
              return a.total_ns != b.total_ns ? a.total_ns > b.total_ns
                                              : a.label < b.label;
            });
  return out;
}

int CurrentSpanDepth() { return LocalBuffer()->depth; }

void RecordManualSpan(const char* label, uint64_t start_ns, uint64_t dur_ns,
                      uint64_t trace_id) {
  if (!TracingEnabled()) return;
  ThreadBuffer* buffer = LocalBuffer();
  TraceEvent ev;
  ev.label = label;
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  ev.trace_id = trace_id;
  ev.tid = util::ThreadId();
  // Nest one level under whatever is open: manual spans describe work that
  // logically happened inside the recording scope (e.g. the scheduler's
  // completion span emitting the request's stage breakdown).
  ev.depth = static_cast<uint16_t>(buffer->depth);
  buffer->Record(ev);
}

namespace internal {

uint64_t PushSpanFrame() {
  ++LocalBuffer()->depth;
  return CurrentTraceId();
}

void PopSpanFrameAndRecord(uint64_t trace_id, TraceEvent* ev) {
  ThreadBuffer* buffer = LocalBuffer();
  --buffer->depth;
  ev->trace_id = trace_id;
  ev->tid = util::ThreadId();
  ev->depth = static_cast<uint16_t>(buffer->depth);
  buffer->Record(*ev);
}

uint64_t TraceNowNs() { return NowNs(); }

uint64_t TraceNsFromSteady(std::chrono::steady_clock::time_point tp) {
  // Signed intermediate + clamp: a stamp from before the epoch pin (only
  // possible from another TU's static initializer) maps to 0, not 2^64.
  const int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp - TraceEpoch())
          .count();
  return ns > 0 ? static_cast<uint64_t>(ns) : 0;
}

}  // namespace internal

}  // namespace ses::obs
