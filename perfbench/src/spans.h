// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark times calls into the library's public functions from its own
// code; the library itself is not instrumented. Each span has a name, a start
// and end on one steady-clock timebase, the span that caused it (the
// innermost span open on the same thread, or an explicit parent) and a
// request id shared by every span of one serving request. Spans stay in
// memory until the run ends; WriteJson then dumps them with their self times.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static storage (string literal)
  int64_t start_ns = 0;
  int64_t end_ns = -1;    ///< -1 while open
  int64_t parent = -1;    ///< index into the recorder's spans, -1 = root
  uint64_t request_id = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children clipped to the
/// parent's interval, overlapping children counted once). Open spans have
/// self time 0.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// A disabled recorder records nothing; Open returns -1.
  void set_enabled(bool on);
  bool enabled() const;

  /// Nanoseconds since the recorder was created.
  int64_t NowNs() const { return ToNs(std::chrono::steady_clock::now()); }
  int64_t ToNs(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Opens a span now, as a child of the innermost span this thread has open
  /// on this recorder. Returns its id, or -1 when disabled.
  int64_t Open(const char* name, uint64_t request_id = 0);
  /// Closes a span opened by Open on the same thread (id -1 is a no-op).
  void Close(int64_t id);
  /// Records a finished span with explicit times and parent (for intervals
  /// observed across threads, e.g. a request from its due time to the time
  /// its answer was seen). Returns its id, or -1 when disabled.
  int64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                 int64_t parent, uint64_t request_id = 0);

  std::vector<Span> spans() const;
  /// Writes {"spans":[...]} with each span's self time. False on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread.
class Scope {
 public:
  Scope(SpanRecorder& recorder, const char* name, uint64_t request_id = 0)
      : recorder_(recorder), id_(recorder.Open(name, request_id)) {}
  ~Scope() { recorder_.Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  const int64_t id_;
};

/// Durations (end - start) of the closed spans named `name`, in seconds.
std::vector<double> DurationsSeconds(const std::vector<Span>& spans,
                                     const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
