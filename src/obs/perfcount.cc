#include "obs/perfcount.h"

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/roofline.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ses::obs {

PerfCounts& PerfCounts::operator+=(const PerfCounts& o) {
  cycles += o.cycles;
  instructions += o.instructions;
  cache_refs += o.cache_refs;
  cache_misses += o.cache_misses;
  branch_misses += o.branch_misses;
  valid = valid && o.valid;
  return *this;
}

PerfCounts& PerfCounts::operator-=(const PerfCounts& o) {
  const auto sat = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
  cycles = sat(cycles, o.cycles);
  instructions = sat(instructions, o.instructions);
  cache_refs = sat(cache_refs, o.cache_refs);
  cache_misses = sat(cache_misses, o.cache_misses);
  branch_misses = sat(branch_misses, o.branch_misses);
  valid = valid && o.valid;
  return *this;
}

namespace {

/// Event order inside the group; Read() relies on it.
constexpr uint64_t kEventConfigs[] = {
    PERF_COUNT_HW_CPU_CYCLES,       PERF_COUNT_HW_INSTRUCTIONS,
    PERF_COUNT_HW_CACHE_REFERENCES, PERF_COUNT_HW_CACHE_MISSES,
    PERF_COUNT_HW_BRANCH_MISSES};
constexpr int kEventCount = 5;

/// Process-wide availability latch: 0 unknown, 1 available, -1 fallback.
/// The probe runs once; every thread after that pays one relaxed load.
std::atomic<int> g_perf_state{0};
std::mutex g_perf_reason_mutex;
std::string g_perf_reason;  // guarded by g_perf_reason_mutex

void SetPerfUnavailable(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(g_perf_reason_mutex);
    g_perf_reason = reason;
  }
  g_perf_state.store(-1, std::memory_order_release);
  MetricsRegistry::Get().GetGauge("ses.perf.available").Set(0.0);
  // One line for the whole process — the fallback is a supported mode, not
  // a per-kernel error condition.
  SES_LOG_INFO << "hardware perf counters unavailable (" << reason
               << "); kernel observatory continues clock-only";
}

long PerfEventOpen(perf_event_attr* attr, int group_fd) {
  return syscall(SYS_perf_event_open, attr, 0, -1, group_fd, 0);
}

/// Per-thread counter group. The leader fd owns the group; all events are
/// read with one read() in PERF_FORMAT_GROUP layout.
class ThreadPerfGroup {
 public:
  ~ThreadPerfGroup() {
    for (int i = kEventCount - 1; i >= 0; --i)
      if (fds_[i] >= 0) ::close(fds_[i]);
  }

  bool Open() {
    perf_event_attr attr{};
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    for (int i = 0; i < kEventCount; ++i) {
      attr.config = kEventConfigs[i];
      // The leader starts enabled; siblings inherit the leader's state.
      attr.disabled = (i == 0) ? 1 : 0;
      const long fd = PerfEventOpen(&attr, i == 0 ? -1 : fds_[0]);
      if (fd < 0) {
        errno_ = errno;
        failed_config_ = static_cast<int>(kEventConfigs[i]);
        return false;
      }
      fds_[i] = static_cast<int>(fd);
    }
    if (::ioctl(fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) != 0) {
      errno_ = errno;
      return false;
    }
    return true;
  }

  PerfCounts Read() const {
    // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, values[nr].
    uint64_t buf[3 + kEventCount];
    const ssize_t want = sizeof(buf);
    const ssize_t n = ::read(fds_[0], buf, sizeof(buf));
    PerfCounts out;
    if (n != want || buf[0] != kEventCount) return out;
    // Scale for multiplexing: with more events than PMU slots the kernel
    // time-slices the group; time_running < time_enabled and the raw counts
    // cover only the running window.
    const double enabled = static_cast<double>(buf[1]);
    const double running = static_cast<double>(buf[2]);
    const double scale = (running > 0 && enabled > running)
                             ? enabled / running
                             : 1.0;
    const auto scaled = [scale](uint64_t v) {
      return static_cast<uint64_t>(static_cast<double>(v) * scale);
    };
    out.cycles = scaled(buf[3]);
    out.instructions = scaled(buf[4]);
    out.cache_refs = scaled(buf[5]);
    out.cache_misses = scaled(buf[6]);
    out.branch_misses = scaled(buf[7]);
    out.valid = true;
    return out;
  }

  int last_errno() const { return errno_; }
  int failed_config() const { return failed_config_; }

 private:
  int fds_[kEventCount] = {-1, -1, -1, -1, -1};
  int errno_ = 0;
  int failed_config_ = -1;
};

/// The calling thread's group, opened on first use. Returns nullptr on the
/// fallback path. The unique_ptr closes the fds when the thread exits.
ThreadPerfGroup* LocalPerfGroup() {
  thread_local std::unique_ptr<ThreadPerfGroup> group = [] {
    std::unique_ptr<ThreadPerfGroup> g;
    if (g_perf_state.load(std::memory_order_acquire) == -1) return g;
    const char* disable = std::getenv("SES_PERF_DISABLE");
    if (disable != nullptr && disable[0] != '\0' && disable[0] != '0') {
      SetPerfUnavailable("SES_PERF_DISABLE is set");
      return g;
    }
    g = std::make_unique<ThreadPerfGroup>();
    if (!g->Open()) {
      const int err = g->last_errno();
      SetPerfUnavailable("perf_event_open config=" +
                         std::to_string(g->failed_config()) + " failed: " +
                         std::strerror(err));
      g.reset();
      return g;
    }
    if (g_perf_state.load(std::memory_order_relaxed) != 1) {
      g_perf_state.store(1, std::memory_order_release);
      MetricsRegistry::Get().GetGauge("ses.perf.available").Set(1.0);
    }
    return g;
  }();
  // After PerfResetForTest the latch may have been flipped to -1 by another
  // probe; the existing group keeps working, which is fine (the latch only
  // gates new probes and the availability report).
  return group.get();
}

}  // namespace

bool PerfCountersAvailable() {
  const int state = g_perf_state.load(std::memory_order_acquire);
  if (state != 0) return state == 1;
  return LocalPerfGroup() != nullptr;
}

PerfCounts ReadPerfCounts() {
  if (g_perf_state.load(std::memory_order_acquire) == -1) return {};
  ThreadPerfGroup* group = LocalPerfGroup();
  if (group == nullptr) return {};
  return group->Read();
}

std::string PerfUnavailableReason() {
  if (g_perf_state.load(std::memory_order_acquire) != -1) return "";
  std::lock_guard<std::mutex> lock(g_perf_reason_mutex);
  return g_perf_reason;
}

void PerfResetForTest() {
  g_perf_state.store(0, std::memory_order_release);
  std::lock_guard<std::mutex> lock(g_perf_reason_mutex);
  g_perf_reason.clear();
}

// ---------------------------------------------------------------------------
// KernelScope + per-kernel aggregate registry.

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
  // cold path), then updated with relaxed stores on every close. The counter
  // rates register on the first valid hardware sample and the roofline
  // efficiency on the first placement against a calibrated model: until
  // then they are unknown, so the series stay absent rather than 0.
  Counter* calls_metric = nullptr;
  Gauge* time_ms = nullptr;
  Gauge* gflops = nullptr;
  Gauge* intensity = nullptr;
  Gauge* ipc = nullptr;
  Gauge* llc_miss_rate = nullptr;
  Gauge* roofline_efficiency = nullptr;
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
  start_counts_ = ReadPerfCounts();
  start_ns_ = internal::TraceNowNs();  // last: excludes setup from the span
}

void KernelScope::End() {
  const uint64_t end_ns = internal::TraceNowNs();
  PerfCounts end_counts = ReadPerfCounts();
  const uint64_t inclusive_ns = end_ns - start_ns_;

  // Inclusive counter delta for this scope (whole span, opening thread).
  PerfCounts inclusive = end_counts;
  inclusive -= start_counts_;  // valid = both reads valid

  // Exclusive delta: subtract what same-thread children already claimed.
  // child_counts_.valid is irrelevant here (zero children leave it false).
  PerfCounts exclusive = inclusive;
  exclusive -= child_counts_;
  exclusive.valid = inclusive.valid;
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
    if (exclusive.valid) {
      // Aggregate counters cover the calls where perf was live; `valid`
      // means "at least one hardware sample contributed".
      s.counters.cycles += exclusive.cycles;
      s.counters.instructions += exclusive.instructions;
      s.counters.cache_refs += exclusive.cache_refs;
      s.counters.cache_misses += exclusive.cache_misses;
      s.counters.branch_misses += exclusive.branch_misses;
      s.counters.valid = true;
    }
    entry->calls_metric->Add(1);
    entry->time_ms->Set(s.inclusive_ns / 1e6);
    entry->gflops->Set(s.Gflops());
    entry->intensity->Set(s.Intensity());
    // Lazily registered series resolve once, off the steady-state path.
    const auto lazy_gauge = [&s](const char* name) {
      return &MetricsRegistry::Get().GetGauge(
          name, {{"kernel", s.kernel}, {"variant", s.variant}});
    };
    if (s.counters.valid) {
      if (entry->ipc == nullptr) {
        entry->ipc = lazy_gauge("ses.kernel.ipc");
        entry->llc_miss_rate = lazy_gauge("ses.kernel.llc_miss_rate");
      }
      entry->ipc->Set(s.counters.Ipc());
      entry->llc_miss_rate->Set(s.counters.LlcMissRate());
    }
    const RooflineModel roof = CurrentRoofline();
    if (roof.calibrated) {
      if (entry->roofline_efficiency == nullptr)
        entry->roofline_efficiency =
            lazy_gauge("ses.kernel.roofline_efficiency");
      const RooflinePoint p = PlaceOnRoofline(s.flops, s.bytes,
                                              s.inclusive_ns / 1e9, roof);
      entry->roofline_efficiency->Set(p.efficiency);
    }
  }

  // Credit this scope's inclusive span to the parent as "child work".
  if (parent_ != nullptr) {
    parent_->child_ns_ += inclusive_ns;
    if (inclusive.valid) {
      parent_->child_counts_.cycles += inclusive.cycles;
      parent_->child_counts_.instructions += inclusive.instructions;
      parent_->child_counts_.cache_refs += inclusive.cache_refs;
      parent_->child_counts_.cache_misses += inclusive.cache_misses;
      parent_->child_counts_.branch_misses += inclusive.branch_misses;
    }
  }
  t_current_scope = parent_;

  if (traced_) {
    TraceEvent ev;
    ev.label = kernel_;
    ev.variant = variant_;
    ev.start_ns = start_ns_;
    ev.dur_ns = inclusive_ns;
    ev.flops = flops_;
    ev.bytes = bytes_;
    ev.cycles = inclusive.cycles;
    ev.instructions = inclusive.instructions;
    ev.cache_refs = inclusive.cache_refs;
    ev.cache_misses = inclusive.cache_misses;
    ev.branch_misses = inclusive.branch_misses;
    ev.counters_valid = inclusive.valid;
    internal::PopSpanFrameAndRecord(trace_id_, &ev);
  }
}

}  // namespace ses::obs
