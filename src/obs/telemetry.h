#ifndef SES_OBS_TELEMETRY_H_
#define SES_OBS_TELEMETRY_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ses::obs {

/// One training-progress record, emitted once per epoch by
/// models::TrainLoop (SES phases 1 and 2, BackboneModel::Fit). Process-wide
/// counters (NaN skips, rollbacks, checkpoint writes) live in the metrics
/// registry, not here.
struct EpochRecord {
  std::string model;     ///< e.g. "SES (GCN)"
  std::string phase;     ///< "phase1" / "phase2" / "fit"
  int64_t epoch = 0;
  double loss = 0.0;
  double grad_norm = -1.0;      ///< global L2 norm of parameter grads; -1 if unset
  double epoch_seconds = 0.0;   ///< wall-time of this epoch
  double val_metric = -1.0;     ///< validation accuracy/loss; -1 if unset
  /// Model-health fields (from ModelHealthMonitor; empty / -1 when the
  /// monitor is disabled).
  std::vector<std::pair<std::string, double>> layer_grad_norms;
  std::vector<std::pair<std::string, double>> update_ratios;
  double dead_fraction = -1.0;  ///< mean fraction of dead hidden units
  double attn_entropy = -1.0;   ///< mean normalized GAT attention entropy
};

using EpochCallback = std::function<void(const EpochRecord&)>;

/// Pluggable per-epoch telemetry sink. Disabled by default: `Emit` is a
/// single relaxed atomic load when nothing is installed, so instrumented
/// training loops cost nothing in normal runs.
class Telemetry {
 public:
  static Telemetry& Get();

  /// Installs a callback invoked on every Emit (replaces any previous sink).
  void SetCallback(EpochCallback cb);

  /// Installs a callback that appends one JSON object per record to `path`.
  /// Returns false (and logs) if the file cannot be opened.
  bool OpenJsonl(const std::string& path);

  /// Removes the installed sink (flushes/closes a JSONL file sink).
  void Close();

  bool active() const { return active_.load(std::memory_order_relaxed); }

  void Emit(const EpochRecord& record) {
    if (active()) EmitSlow(record);
  }

 private:
  Telemetry() = default;
  void EmitSlow(const EpochRecord& record);

  std::atomic<bool> active_{false};
  std::mutex mutex_;  ///< guards callback_ and serializes emissions
  EpochCallback callback_;
};

/// Serializes a record as a single-line JSON object (exposed for tests).
std::string EpochRecordToJson(const EpochRecord& record);

}  // namespace ses::obs

#endif  // SES_OBS_TELEMETRY_H_
