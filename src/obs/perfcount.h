#ifndef SES_OBS_PERFCOUNT_H_
#define SES_OBS_PERFCOUNT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ses::obs {

/// ---------------------------------------------------------------------------
/// Hardware performance counters (perf_event_open)
///
/// One counter group per thread — cycles (leader), instructions, cache
/// references, cache misses, branch misses — opened lazily on first read and
/// pinned to the calling thread, so a delta between two reads attributes work
/// to exactly that thread. When the kernel refuses the group (no vPMU in the
/// VM, perf_event_paranoid, a container seccomp profile, or SES_PERF_DISABLE=1
/// in the environment) the whole layer degrades to clock-only ONCE, process
/// wide: `ses.perf.available` is set to 0, a single log line records why, and
/// every later read returns an invalid PerfCounts without retrying the
/// syscall — per-kernel warnings would drown the log at kernel call rates.

/// Counter values (or deltas between two reads). `valid` is false on the
/// clock-only fallback path; derived rates then report 0.
struct PerfCounts {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t cache_refs = 0;
  uint64_t cache_misses = 0;
  uint64_t branch_misses = 0;
  bool valid = false;

  double Ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) / cycles;
  }
  double LlcMissRate() const {
    return cache_refs == 0 ? 0.0
                           : static_cast<double>(cache_misses) / cache_refs;
  }

  PerfCounts& operator+=(const PerfCounts& o);
  /// Saturating subtraction (multiplex scaling can make a nested delta
  /// nominally exceed its parent's; attribution must never go negative).
  PerfCounts& operator-=(const PerfCounts& o);
};

/// True when the calling thread's counter group is usable. The first call
/// (per process) performs the probe; later calls are a relaxed load.
bool PerfCountersAvailable();

/// Reads the calling thread's counters. Returns valid=false on the fallback
/// path. Counts are scaled for kernel multiplexing (time_enabled /
/// time_running) so five hardware events stay usable on four-counter PMUs.
PerfCounts ReadPerfCounts();

/// Human-readable reason the fallback engaged ("" while available).
std::string PerfUnavailableReason();

/// Drops the process-wide probe latch so the next read re-probes (test
/// support — lets a test flip SES_PERF_DISABLE and observe the fallback).
/// Thread groups already opened by other threads keep their fds.
void PerfResetForTest();

/// ---------------------------------------------------------------------------
/// KernelScope — the kernel observatory's measurement primitive.
///
/// An RAII scope that combines (a) a trace span, (b) a hardware-counter delta
/// read on the OPENING thread only, and (c) a caller-declared work estimate
/// (floating-point operations and bytes moved). On close it folds one sample
/// into the per-(kernel, variant) aggregate registry, which publishes the
/// `ses.kernel.*{kernel=...,variant=...}` metric series:
///
///   ses.kernel.calls            total scope closes
///   ses.kernel.time_ms          total inclusive wall time
///   ses.kernel.gflops           declared GFLOP / inclusive second
///   ses.kernel.intensity        declared FLOPs / declared byte (arithmetic
///                               intensity, the roofline x-axis)
///   ses.kernel.ipc              instructions / cycle (exclusive; registered
///                               on the first valid counter sample, absent
///                               under the clock-only fallback)
///   ses.kernel.llc_miss_rate    cache misses / references (likewise)
///   ses.kernel.roofline_efficiency  achieved / attainable GFLOP/s, after
///                               CalibrateRoofline() has run (roofline.h)
///
/// Work-accounting contract:
///  - flops/bytes are caller-declared ESTIMATES of the kernel's algorithmic
///    work (2mnk for a dense matmul, 2·nnz·f for SpMM, ...), not
///    measurements. GFLOP/s and intensity derive entirely from them.
///  - Declared work and wall time are INCLUSIVE of nested scopes; a
///    composite scope (e.g. an encoder aggregation path) therefore declares
///    the work of its whole chain and gets a chain-level GFLOP/s.
///  - Hardware-counter deltas are EXCLUSIVE: a parent's recorded delta has
///    every same-thread child's delta subtracted, so summing counter deltas
///    across all scopes never double-counts (satellite: nesting test).
///  - Counters are read on the opening thread only. Inside an OpenMP region
///    the other team members' cycles are invisible to the scope; IPC and
///    miss rates describe the opening thread, while GFLOP/s (wall-clock
///    based) describes the whole team.
///
/// A disabled KernelScope (the default) is one relaxed load and a branch —
/// the serving fast path stays unmeasurably close to free.

namespace internal {
extern std::atomic<bool> g_kernel_profiling_enabled;
}  // namespace internal

/// Turns kernel profiling on/off at runtime. Default: off. ObsSession turns
/// it on alongside tracing whenever any observability artifact is requested.
void EnableKernelProfiling(bool on);
inline bool KernelProfilingEnabled() {
  return internal::g_kernel_profiling_enabled.load(std::memory_order_relaxed);
}

/// Aggregated statistics for one (kernel, variant) pair.
struct KernelStats {
  std::string kernel;
  std::string variant;
  uint64_t calls = 0;
  double inclusive_ns = 0;  ///< wall time, nested scopes included
  double exclusive_ns = 0;  ///< wall time minus same-thread nested scopes
  double flops = 0;         ///< total declared FLOPs
  double bytes = 0;         ///< total declared bytes moved
  PerfCounts counters;      ///< exclusive counter deltas (valid => perf live)

  /// Declared GFLOP/s over inclusive time (FLOPs per nanosecond).
  double Gflops() const {
    return inclusive_ns <= 0 ? 0.0 : flops / inclusive_ns;
  }
  /// Declared GB/s of the kernel over inclusive time.
  double GBps() const { return inclusive_ns <= 0 ? 0.0 : bytes / inclusive_ns; }
  /// Arithmetic intensity: FLOPs per byte.
  double Intensity() const { return bytes <= 0 ? 0.0 : flops / bytes; }
};

/// Snapshot of every (kernel, variant) aggregate, sorted by descending
/// inclusive time. Safe to call while scopes keep recording.
std::vector<KernelStats> SnapshotKernelStats();

/// Drops all aggregates (bench repetitions / tests). Concurrent scopes may
/// record into the fresh table; metric series keep their last values until
/// the next record overwrites them.
void ResetKernelStats();

class KernelScope {
 public:
  /// `kernel` and `variant` must be string literals (static storage);
  /// they become metric labels and trace span names without copying.
  KernelScope(const char* kernel, const char* variant, double flops,
              double bytes) {
    if (KernelProfilingEnabled()) Begin(kernel, variant, flops, bytes);
  }
  ~KernelScope() {
    if (kernel_ != nullptr) End();
  }
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  void Begin(const char* kernel, const char* variant, double flops,
             double bytes);
  void End();

  const char* kernel_ = nullptr;  ///< null => profiling was off at entry
  const char* variant_ = nullptr;
  double flops_ = 0;
  double bytes_ = 0;
  uint64_t start_ns_ = 0;
  uint64_t trace_id_ = 0;  ///< request id captured at Begin
  PerfCounts start_counts_;
  bool traced_ = false;      ///< tracing was live at Begin (span recorded)
  KernelScope* parent_ = nullptr;  ///< enclosing scope on this thread
  uint64_t child_ns_ = 0;          ///< inclusive ns of direct children
  PerfCounts child_counts_;        ///< inclusive counter deltas of children
};

}  // namespace ses::obs

#endif  // SES_OBS_PERFCOUNT_H_
