#ifndef SES_OBS_FLIGHT_RECORDER_H_
#define SES_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/request.h"

namespace ses::obs {

/// Process-wide recorder of the top-K slowest requests per rolling window.
///
/// PublishRequests offers every timed RequestRecord via Record(); the fast
/// path is two relaxed atomic loads and a compare (window check + admission
/// floor), so feeding it every completed request costs nanoseconds. Records
/// that beat the floor enter a mutex-protected min-heap of size K; when the
/// window rolls, the heap is retired to a "previous" slot so `/debug/slowest`
/// always serves up to two windows of context instead of going blank at the
/// boundary.
///
/// Auto-dump: ArmAutoDump(path, threshold) arms a one-shot trigger on the SLO
/// burn rate the scheduler reports per batch (ObserveBurn). When burn crosses
/// the threshold the current snapshot is written to `path` as JSON; the
/// trigger re-arms once burn falls below threshold/2 (hysteresis — a burn
/// oscillating at the threshold produces one dump per excursion, not one per
/// batch).
class FlightRecorder {
 public:
  static FlightRecorder& Get();

  /// Reconfigures retention. top_k clamps to [1, 4096]; window_us must be
  /// positive. Existing records are kept.
  void Configure(int64_t top_k, double window_us);

  /// Offers one timed request. Thread-safe; cheap when the record is faster
  /// than the current window's K-th slowest.
  void Record(const RequestRecord& record);

  /// Merged current + previous window records, slowest first.
  std::vector<RequestRecord> Snapshot() const;

  /// JSON document served at /debug/slowest: config, dump state, and the
  /// Snapshot() records with all six stage stamps in microseconds on the
  /// trace-epoch clock, so they line up with Chrome-trace `ts` values.
  std::string SnapshotJson() const;

  /// Arms the burn-triggered auto-dump. An empty path disarms.
  void ArmAutoDump(const std::string& path, double burn_threshold);

  /// Feeds one SLO burn-rate sample (scheduler: once per executed batch).
  /// Dumps at most once per threshold excursion.
  void ObserveBurn(double burn);

  /// Writes SnapshotJson() to `path`. Returns false (and logs) on failure.
  bool DumpTo(const std::string& path) const;

  int64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }

  /// Drops all records and disarms the auto-dump (test support).
  void ResetForTest();

 private:
  FlightRecorder() = default;

  void RollWindowIfDue(double now_us);

  mutable std::mutex mutex_;
  std::vector<RequestRecord> current_;   ///< min-heap by e2e, size <= top_k_
  std::vector<RequestRecord> previous_;  ///< last completed window, retired
  int64_t top_k_ = 32;
  double window_us_ = 10e6;  ///< 10 s rolling window

  /// Admission floor: e2e_us of the current heap's minimum once full, else
  /// -1. Read without the lock on the Record fast path; stale reads only
  /// admit a record the heap then rejects under the lock.
  std::atomic<double> floor_{-1.0};
  std::atomic<double> window_start_us_{0.0};

  std::string dump_path_;  ///< guarded by mutex_
  std::atomic<double> burn_threshold_{0.0};
  std::atomic<bool> armed_{false};
  std::atomic<bool> ready_{true};  ///< false after a dump until burn recedes
  std::atomic<int64_t> dumps_{0};
};

}  // namespace ses::obs

#endif  // SES_OBS_FLIGHT_RECORDER_H_
