#include "obs/kernel_scope.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ses::obs {

std::atomic<bool> internal::g_kernel_profiling_enabled{false};

void EnableKernelProfiling(bool on) {
  internal::g_kernel_profiling_enabled.store(on, std::memory_order_relaxed);
}

namespace {

/// One aggregate row. Plain fields under a per-entry mutex: kernel calls are
/// microsecond-scale, so a short uncontended lock per close is cheap, and it
/// keeps flops accumulation exact (no atomic<double> CAS loops).
struct KernelEntry {
  std::mutex mutex;
  KernelStats stats;
  // Metric series resolved once on first record (registry lookups are the
  // cold path), then updated with relaxed stores on every close.
  Counter* calls_metric = nullptr;
  Gauge* time_ms = nullptr;
  Gauge* gflops = nullptr;
  Gauge* intensity = nullptr;
};

std::shared_mutex g_kernel_table_mutex;
std::unordered_map<std::string, std::unique_ptr<KernelEntry>>& KernelTable() {
  static auto* table =
      new std::unordered_map<std::string, std::unique_ptr<KernelEntry>>();
  return *table;
}

KernelEntry* EntryFor(const char* kernel, const char* variant) {
  std::string key;
  key.reserve(std::strlen(kernel) + std::strlen(variant) + 1);
  key += kernel;
  key += '|';
  key += variant;
  {
    std::shared_lock lock(g_kernel_table_mutex);
    auto it = KernelTable().find(key);
    if (it != KernelTable().end()) return it->second.get();
  }
  std::unique_lock lock(g_kernel_table_mutex);
  auto& slot = KernelTable()[key];
  if (slot == nullptr) {
    slot = std::make_unique<KernelEntry>();
    slot->stats.kernel = kernel;
    slot->stats.variant = variant;
    const MetricsRegistry::LabelSet labels{{"kernel", kernel},
                                           {"variant", variant}};
    auto& reg = MetricsRegistry::Get();
    slot->calls_metric = &reg.GetCounter("ses.kernel.calls", labels);
    slot->time_ms = &reg.GetGauge("ses.kernel.time_ms", labels);
    slot->gflops = &reg.GetGauge("ses.kernel.gflops", labels);
    slot->intensity = &reg.GetGauge("ses.kernel.intensity", labels);
  }
  return slot.get();
}

/// The innermost open KernelScope on this thread (exclusive attribution).
thread_local KernelScope* t_current_scope = nullptr;

}  // namespace

std::vector<KernelStats> SnapshotKernelStats() {
  std::vector<KernelStats> out;
  std::shared_lock lock(g_kernel_table_mutex);
  out.reserve(KernelTable().size());
  for (auto& [key, entry] : KernelTable()) {
    std::lock_guard<std::mutex> entry_lock(entry->mutex);
    out.push_back(entry->stats);
  }
  lock.unlock();
  std::sort(out.begin(), out.end(),
            [](const KernelStats& a, const KernelStats& b) {
              return a.inclusive_ns != b.inclusive_ns
                         ? a.inclusive_ns > b.inclusive_ns
                         : (a.kernel != b.kernel ? a.kernel < b.kernel
                                                 : a.variant < b.variant);
            });
  return out;
}

void ResetKernelStats() {
  std::unique_lock lock(g_kernel_table_mutex);
  for (auto& [key, entry] : KernelTable()) {
    std::lock_guard<std::mutex> entry_lock(entry->mutex);
    const std::string kernel = entry->stats.kernel;
    const std::string variant = entry->stats.variant;
    entry->stats = KernelStats{};
    entry->stats.kernel = kernel;
    entry->stats.variant = variant;
  }
}

void KernelScope::Begin(const char* kernel, const char* variant, double flops,
                        double bytes) {
  kernel_ = kernel;
  variant_ = variant == nullptr ? "" : variant;
  flops_ = flops < 0 ? 0 : flops;
  bytes_ = bytes < 0 ? 0 : bytes;
  parent_ = t_current_scope;
  t_current_scope = this;
  traced_ = TracingEnabled();
  if (traced_) trace_id_ = internal::PushSpanFrame();
  start_ns_ = internal::TraceNowNs();  // last: excludes setup from the span
}

void KernelScope::End() {
  const uint64_t inclusive_ns = internal::TraceNowNs() - start_ns_;
  const uint64_t exclusive_ns =
      inclusive_ns > child_ns_ ? inclusive_ns - child_ns_ : 0;

  // Fold into the aggregate table and refresh the metric series.
  KernelEntry* entry = EntryFor(kernel_, variant_);
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    KernelStats& s = entry->stats;
    ++s.calls;
    s.inclusive_ns += static_cast<double>(inclusive_ns);
    s.exclusive_ns += static_cast<double>(exclusive_ns);
    s.flops += flops_;
    s.bytes += bytes_;
    entry->calls_metric->Add(1);
    entry->time_ms->Set(s.inclusive_ns / 1e6);
    entry->gflops->Set(s.Gflops());
    entry->intensity->Set(s.Intensity());
  }

  // Credit this scope's inclusive span to the parent as "child work".
  if (parent_ != nullptr) parent_->child_ns_ += inclusive_ns;
  t_current_scope = parent_;

  if (traced_) {
    TraceEvent ev;
    ev.label = kernel_;
    ev.variant = variant_;
    ev.start_ns = start_ns_;
    ev.dur_ns = inclusive_ns;
    ev.flops = flops_;
    ev.bytes = bytes_;
    internal::PopSpanFrameAndRecord(trace_id_, &ev);
  }
}

}  // namespace ses::obs
