#ifndef SES_OBS_METRICS_H_
#define SES_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ses::obs {

/// Monotonic counter. Increments are a single atomic add.
class Counter {
 public:
  void Add(int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins scalar.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bucketed histogram with configurable boundaries. `edges` are ascending
/// inclusive upper bounds; bucket i counts observations v with v <= edges[i]
/// (first matching bucket), and one implicit overflow bucket counts
/// everything above the last edge.
///
/// Each bucket additionally keeps one *exemplar* — the trace id and value of
/// the most recent observation that landed there while a trace id was in
/// scope (see obs::CurrentTraceId) or was passed explicitly. The reservoir is
/// last-write-wins and lossy under contention: a writer that finds another
/// writer mid-update simply drops its exemplar rather than spinning, so the
/// hot Observe path never blocks. Exemplars are exported by the Prometheus
/// writer in OpenMetrics syntax, which is how a scraped p99 bucket links back
/// to a concrete request in the access log and Chrome trace.
class Histogram {
 public:
  /// One bucket's exemplar: the last traced observation that landed there.
  struct Exemplar {
    uint64_t trace_id = 0;
    double value = 0.0;
  };

  explicit Histogram(std::vector<double> edges);

  void Observe(double v);
  /// Observe with an explicit trace id (0 = untraced) — for callers that
  /// complete requests on a thread other than the one that owns the trace id
  /// (e.g. the batch scheduler's worker loop).
  void Observe(double v, uint64_t trace_id);
  /// Batched Observe: accumulates the n values into local bucket tallies and
  /// flushes each touched bucket (plus count/sum) with one atomic op, so a
  /// micro-batch of B observations costs O(distinct buckets) contended ops
  /// instead of O(B).
  void ObserveMany(const double* values, int64_t n);
  /// Batched Observe carrying per-value trace ids; each touched bucket keeps
  /// the last traced value of the batch as its exemplar. `trace_ids` may be
  /// null (equivalent to the untraced overload).
  void ObserveMany(const double* values, const uint64_t* trace_ids, int64_t n);

  /// Reads bucket i's exemplar. Returns false when the bucket has never seen
  /// a traced observation, or when a writer raced the read past the bounded
  /// retry budget (exemplars are advisory; dropping a read is fine).
  bool ReadExemplar(size_t i, Exemplar* out) const;

  const std::vector<double>& edges() const { return edges_; }
  /// i in [0, edges().size()]; the last index is the overflow bucket.
  int64_t BucketCount(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;

  /// Bucket-interpolated quantile estimate for q in [0, 1]: finds the bucket
  /// holding the q-th observation and interpolates linearly inside it
  /// (buckets are assumed to start at 0, or at the previous edge). An
  /// observation landing in the overflow bucket reports the last edge — the
  /// estimate saturates rather than extrapolating to infinity. Returns 0
  /// with no observations.
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }
  double P999() const { return Quantile(0.999); }

  /// `count` geometric boundaries start, start*factor, start*factor^2, ...
  /// (the standard shape for latency histograms).
  static std::vector<double> ExponentialEdges(double start, double factor,
                                              int count);
  /// Default latency buckets in microseconds: 30 geometric edges covering
  /// 0.1 us .. ~54 s.
  static const std::vector<double>& DefaultLatencyEdgesUs();

 private:
  /// Seqlock-protected exemplar slot. seq is even when the slot is stable and
  /// odd while a writer is mid-update; writers bump even→odd, store the
  /// payload, then publish odd→even with release ordering. A writer that
  /// loses the CAS walks away (last-write-wins, lossy). seq == 0 means the
  /// slot has never been written.
  struct ExemplarSlot {
    std::atomic<uint32_t> seq{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<double> value{0.0};
  };

  size_t BucketIndex(double v) const;
  void RecordExemplar(size_t bucket, double v, uint64_t trace_id);

  std::vector<double> edges_;
  std::vector<std::atomic<int64_t>> counts_;  ///< edges_.size() + 1 slots
  std::vector<ExemplarSlot> exemplars_;       ///< one slot per bucket
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Process-wide registry of named metrics. Registration takes the registry
/// lock exclusively (cold path — callers should cache the returned
/// reference); exports take it shared, so a live `/metrics` scrape never
/// races a concurrent GetCounter on a new name. Updates on the returned
/// objects are lock-free, and returned references stay valid for the
/// lifetime of the process.
///
/// Metrics can carry Prometheus-style labels: GetCounter("ses.sched.shed",
/// {{"reason", "queue_depth"}}) registers a distinct time series per label
/// set. The labels are folded into the registry key in a canonical encoded
/// form (see LabeledName); the Prometheus exporter splits them back out.
class MetricsRegistry {
 public:
  /// One label set: (key, value) pairs. Order is irrelevant — keys are
  /// sorted before encoding.
  using LabelSet = std::vector<std::pair<std::string, std::string>>;

  static MetricsRegistry& Get();

  Counter& GetCounter(const std::string& name);
  Counter& GetCounter(const std::string& name, const LabelSet& labels);
  Gauge& GetGauge(const std::string& name);
  Gauge& GetGauge(const std::string& name, const LabelSet& labels);
  /// `edges` only matters on first creation; later calls return the existing
  /// histogram regardless of the edges argument.
  Histogram& GetHistogram(const std::string& name, std::vector<double> edges);
  Histogram& GetHistogram(const std::string& name, const LabelSet& labels,
                          std::vector<double> edges);

  /// Canonical registry key for a labeled metric: `name{k1="v1",k2="v2"}`
  /// with keys sorted and values escaped (\\, \", \n). An empty label set
  /// returns `name` unchanged. This is exactly the Prometheus sample syntax
  /// minus name sanitization, so keys round-trip through the exporter.
  static std::string LabeledName(const std::string& name,
                                 const LabelSet& labels);

  /// Prometheus text exposition format 0.0.4 (implemented in prometheus.cc):
  /// `# TYPE` headers per family, sanitized names, escaped label values,
  /// cumulative `_bucket{le=...}` series plus `_sum`/`_count` per histogram.
  void WritePrometheus(std::ostream& out) const;

  /// Drops every registered metric (test support; invalidates references).
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The one metrics format: what `/metrics` serves and `--metrics-out`
/// writes. The registry's Prometheus exposition, then the span aggregates
/// (AggregateSpanStats) as gauge families
/// ses_span_{count,total_ms,min_us,max_us}{label="..."} (prometheus.cc).
void WriteMetricsExposition(std::ostream& out);

}  // namespace ses::obs

#endif  // SES_OBS_METRICS_H_
