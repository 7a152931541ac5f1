#include "obs/metrics.h"

#include <algorithm>
#include <mutex>

#include "obs/request.h"
#include "util/logging.h"

namespace ses::obs {

namespace {

/// CAS-loop add for the histogram running sum (no atomic<double>::fetch_add
/// before C++20 on all toolchains; the loop is equivalent).
void AtomicAdd(std::atomic<double>* target, double delta) {
  double cur = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(cur, cur + delta,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> edges)
    : edges_(std::move(edges)),
      counts_(edges_.size() + 1),
      exemplars_(edges_.size() + 1) {
  SES_CHECK(std::is_sorted(edges_.begin(), edges_.end()));
}

size_t Histogram::BucketIndex(double v) const {
  return static_cast<size_t>(
      std::lower_bound(edges_.begin(), edges_.end(), v) - edges_.begin());
}

void Histogram::RecordExemplar(size_t bucket, double v, uint64_t trace_id) {
  ExemplarSlot& slot = exemplars_[bucket];
  uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  // Odd seq = another writer mid-update. Drop this exemplar instead of
  // spinning: the reservoir is last-write-wins and lossy by design.
  if (seq & 1u) return;
  if (!slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed))
    return;
  std::atomic_thread_fence(std::memory_order_release);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.value.store(v, std::memory_order_relaxed);
  slot.seq.store(seq + 2, std::memory_order_release);
}

bool Histogram::ReadExemplar(size_t i, Exemplar* out) const {
  const ExemplarSlot& slot = exemplars_[i];
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint32_t before = slot.seq.load(std::memory_order_acquire);
    if (before == 0) return false;  // never written
    if (before & 1u) continue;      // writer mid-update; retry
    const uint64_t trace_id = slot.trace_id.load(std::memory_order_relaxed);
    const double value = slot.value.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;
    if (trace_id == 0) return false;
    out->trace_id = trace_id;
    out->value = value;
    return true;
  }
  return false;  // persistently contended; exemplars are advisory
}

void Histogram::Observe(double v) { Observe(v, CurrentTraceId()); }

void Histogram::Observe(double v, uint64_t trace_id) {
  const size_t bucket = BucketIndex(v);
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, v);
  if (trace_id != 0) RecordExemplar(bucket, v, trace_id);
}

void Histogram::ObserveMany(const double* values, int64_t n) {
  ObserveMany(values, /*trace_ids=*/nullptr, n);
}

void Histogram::ObserveMany(const double* values, const uint64_t* trace_ids,
                            int64_t n) {
  if (n <= 0) return;
  constexpr size_t kMaxStackBuckets = 64;
  const size_t buckets = counts_.size();
  if (buckets > kMaxStackBuckets) {  // unusual edge count: plain loop
    for (int64_t i = 0; i < n; ++i)
      Observe(values[i], trace_ids == nullptr ? 0 : trace_ids[i]);
    return;
  }
  int64_t local[kMaxStackBuckets] = {};
  // Last traced (value, id) seen per bucket this batch; flushed once at the
  // end so a batch of B observations costs at most O(distinct buckets)
  // exemplar publishes, matching the count flush.
  double last_value[kMaxStackBuckets];
  uint64_t last_id[kMaxStackBuckets] = {};
  double sum = 0.0;
  // Batched observations cluster (e.g. queue waits of one micro-batch), so
  // re-testing the previous value's bucket usually beats re-running the
  // binary search's data-dependent branches.
  const size_t num_edges = edges_.size();
  size_t last = 0;
  bool have_last = false;
  for (int64_t i = 0; i < n; ++i) {
    const double v = values[i];
    if (!(have_last && (last == 0 || edges_[last - 1] < v) &&
          (last == num_edges || v <= edges_[last]))) {
      last = static_cast<size_t>(
          std::lower_bound(edges_.begin(), edges_.end(), v) - edges_.begin());
      have_last = true;
    }
    ++local[last];
    sum += v;
    if (trace_ids != nullptr && trace_ids[i] != 0) {
      last_value[last] = v;
      last_id[last] = trace_ids[i];
    }
  }
  for (size_t b = 0; b < buckets; ++b) {
    if (local[b] != 0)
      counts_[b].fetch_add(local[b], std::memory_order_relaxed);
    if (last_id[b] != 0) RecordExemplar(b, last_value[b], last_id[b]);
  }
  count_.fetch_add(n, std::memory_order_relaxed);
  AtomicAdd(&sum_, sum);
}

double Histogram::Sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::Quantile(double q) const {
  q = std::min(1.0, std::max(0.0, q));
  const int64_t total = Count();
  if (total == 0) return 0.0;
  // The rank of the target observation (1-based), then a walk to the bucket
  // holding it. Bucket counts are re-read once each; a concurrent Observe can
  // make the walk see slightly more than `total`, which only shifts the
  // estimate within a bucket.
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (size_t i = 0; i < edges_.size(); ++i) {
    const double in_bucket = static_cast<double>(BucketCount(i));
    if (cumulative + in_bucket >= rank && in_bucket > 0) {
      const double lower = i == 0 ? std::min(0.0, edges_[0]) : edges_[i - 1];
      const double fraction = (rank - cumulative) / in_bucket;
      return lower + fraction * (edges_[i] - lower);
    }
    cumulative += in_bucket;
  }
  // Overflow bucket: no finite upper bound, saturate at the last edge.
  return edges_.empty() ? 0.0 : edges_.back();
}

std::vector<double> Histogram::ExponentialEdges(double start, double factor,
                                                int count) {
  SES_CHECK(start > 0.0 && factor > 1.0 && count > 0);
  std::vector<double> edges;
  edges.reserve(static_cast<size_t>(count));
  double edge = start;
  for (int i = 0; i < count; ++i) {
    edges.push_back(edge);
    edge *= factor;
  }
  return edges;
}

const std::vector<double>& Histogram::DefaultLatencyEdgesUs() {
  static const std::vector<double>* edges =
      new std::vector<double>(ExponentialEdges(0.1, 2.0, 30));
  return *edges;
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

std::string MetricsRegistry::LabeledName(const std::string& name,
                                         const LabelSet& labels) {
  if (labels.empty()) return name;
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out = name;
  out += '{';
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ',';
    out += sorted[i].first;
    out += "=\"";
    for (const char c : sorted[i].second) {
      switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    out += '"';
  }
  out += '}';
  return out;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::unique_lock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const LabelSet& labels) {
  return GetCounter(LabeledName(name, labels));
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::unique_lock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const LabelSet& labels) {
  return GetGauge(LabeledName(name, labels));
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> edges) {
  std::unique_lock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(edges));
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const LabelSet& labels,
                                         std::vector<double> edges) {
  return GetHistogram(LabeledName(name, labels), std::move(edges));
}

void MetricsRegistry::ResetForTest() {
  std::unique_lock lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace ses::obs
