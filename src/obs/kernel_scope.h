#ifndef SES_OBS_KERNEL_SCOPE_H_
#define SES_OBS_KERNEL_SCOPE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ses::obs {

/// ---------------------------------------------------------------------------
/// KernelScope — the kernel observatory's measurement primitive.
///
/// An RAII scope that combines (a) a trace span, (b) a wall-clock
/// measurement, and (c) a caller-declared work estimate (floating-point
/// operations and bytes moved). On close it folds one sample into the
/// per-(kernel, variant) aggregate registry, which publishes exactly four
/// `ses.kernel.*{kernel=...,variant=...}` metric series:
///
///   ses.kernel.calls            total scope closes
///   ses.kernel.time_ms          total inclusive wall time
///   ses.kernel.gflops           declared GFLOP / inclusive second
///   ses.kernel.intensity        declared FLOPs / declared byte
///
/// Accounting contract (clock only — no hardware counters are read):
///  - flops/bytes are caller-declared ESTIMATES of the kernel's algorithmic
///    work (2mnk for a dense matmul, 2·nnz·f for SpMM, ...), not
///    measurements. GFLOP/s and intensity derive entirely from them.
///  - Declared work and wall time are INCLUSIVE of nested scopes; a
///    composite scope (e.g. an encoder aggregation path) therefore declares
///    the work of its whole chain and gets a chain-level GFLOP/s.
///  - Exclusive wall time subtracts every same-thread child's inclusive
///    time, so summing exclusive times across scopes never double-counts.
///    A scope opened on another thread (an OpenMP team member, a serving
///    worker) is not a child: it never debits a scope open elsewhere.
///
/// A disabled KernelScope (the default) is one relaxed load and a branch —
/// the serving fast path stays unmeasurably close to free.

namespace internal {
extern std::atomic<bool> g_kernel_profiling_enabled;
}  // namespace internal

/// Turns kernel profiling on/off at runtime. Default: off. obs::Session turns
/// it on whenever any observability flag is given.
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
  bool traced_ = false;    ///< tracing was live at Begin (span recorded)
  KernelScope* parent_ = nullptr;  ///< enclosing scope on this thread
  uint64_t child_ns_ = 0;          ///< inclusive ns of direct children
};

}  // namespace ses::obs

#endif  // SES_OBS_KERNEL_SCOPE_H_
