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
/// Auto-dump: ArmAutoDump(path, budget) arms a trigger on the records
/// themselves. The first timed record whose queue wait (forward-start minus
/// submit; 0 on the direct path) exceeds the budget is admitted and then the
/// snapshot is written to `path` as JSON. The trigger re-arms when the window
/// rolls, so a sustained breach writes at most one dump per window.
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

  /// Arms the queue-wait auto-dump. An empty path or a budget <= 0 disarms.
  void ArmAutoDump(const std::string& path, double queue_wait_budget_us);

  /// Writes SnapshotJson() to `path`. Returns false (and logs) on failure.
  bool DumpTo(const std::string& path) const;

  int64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }

  /// Drops all records and disarms the auto-dump (test support).
  void ResetForTest();

 private:
  FlightRecorder() = default;

  void RollWindowIfDue(double now_us);
  /// Enters `record` into the current window's heap if it places.
  void Admit(const RequestRecord& record);

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
  std::atomic<double> dump_budget_us_{0.0};  ///< 0 = auto-dump disarmed
  std::atomic<bool> dumped_{false};  ///< this window has dumped already
  std::atomic<int64_t> dumps_{0};
};

}  // namespace ses::obs

#endif  // SES_OBS_FLIGHT_RECORDER_H_
