// Shared pieces of the benchmark: the fixed workload settings, the result
// record printed as the run's last line, statistics, memory probes and
// checked input generation.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ses_model.h"
#include "data/dataset.h"
#include "spans.h"

namespace perfbench {

namespace autograd = ses::autograd;
namespace core = ses::core;
namespace data = ses::data;
namespace graph = ses::graph;
namespace models = ses::models;
namespace tensor = ses::tensor;
namespace util = ses::util;

using Clock = std::chrono::steady_clock;

// ---- fixed settings (mirrored in BENCHMARK.json's workload descriptions) ---
// Thread budget on a 4-CPU box: one OpenMP thread everywhere (run.py sets
// OMP_NUM_THREADS=1), one worker per scheduler, and one thread that
// generates the load and collects the answers: serve-write runs 3 threads
// (two shard schedulers), the train workload's serving probe 2.
inline constexpr int64_t kWorkersPerScheduler = 1;
inline constexpr int64_t kShards = 2;
inline constexpr int64_t kHidden = 32;

/// SES training settings of one workload.
struct TrainSettings {
  int64_t base_nodes;
  int64_t epochs;      ///< phase-1 (explainable training) epochs
  int64_t epl_epochs;  ///< phase-2 (enhanced predictive learning) epochs
  float lr;
};
/// `train` workload: the timed Fit.
inline constexpr TrainSettings kTrainFit{10000, 8, 4, 0.01f};
/// The model serve-write serves; its Fit is untimed set-up work.
inline constexpr TrainSettings kServedFit{30000, 2, 1, 0.05f};

/// Open-loop read traffic of serve-write and of the train workload's serving
/// probe.
inline constexpr double kReadRate = 10000.0;   ///< requests per second
inline constexpr double kExplainShare = 0.1;    ///< rest are predicts
inline constexpr double kZipfExponent = 1.0;    ///< node popularity
inline constexpr int64_t kTopK = 10;            ///< explain top-k
/// Scheduler policy: batches seal at kMaxBatch requests or after
/// kFlushDeadlineUs; no admission controller, no degraded mode, no synthetic
/// cost. Every request carries a deadline equal to its latency limit.
inline constexpr int64_t kMaxBatch = 64;
inline constexpr int64_t kFlushDeadlineUs = 2000;
inline constexpr double kProbeLimitMs = 50.0;   ///< serving-probe limit
inline constexpr double kWriteLimitMs = 500.0;  ///< serve-write limit
/// serve-write: every 500 ms one version bump of every shard, in the middle
/// of a latency window (below), so every window holds one rebuild of each
/// shard.
inline constexpr double kWriteEverySeconds = 0.5;
/// serve-write latency windows (see QuietQuantile).
inline constexpr int64_t kLatencyWindowNs = 500000000;
/// The served graph and model are the same in every serve-write run; --seed
/// drives the request stream.
inline constexpr uint64_t kServedSeed = 0;

/// Set-up repetitions (setup_s is their median): kTrainSetupReps per round
/// of the train workload (see RunTrain), kServeSetupReps per serve-write run.
inline constexpr int kTrainSetupReps = 11;
inline constexpr int kServeSetupReps = 5;

// ---- result ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Marks the run incorrect and says why on stderr.
  void Wrong(const std::string& why);
  std::string Json() const;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string digests_path;  ///< committed "nodes seed digest" table
  std::string trace_dir;     ///< where a traced run writes its spans
};

/// The process-wide span recorder (enabled only in traced runs).
SpanRecorder& Recorder();

// ---- statistics ------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double SecondsSince(Clock::time_point t);

/// A latency quantile of a run, robust to CPU steal and contention on a
/// shared VM (which come in bursts and stretches unrelated to the code under
/// test): the samples are cut into windows of `window` by their key (say,
/// the time each request was due, or its round), the q-quantile is taken
/// within every window, and the 10th percentile of those per-window values
/// is returned: the quantile in the run's quiet windows. `keys` and `values`
/// are parallel.
double QuietQuantile(const std::vector<int64_t>& keys,
                     const std::vector<double>& values, double q,
                     int64_t window);

// ---- memory ----------------------------------------------------------------

/// Peak resident set (VmHWM) in MB.
double PeakRssMb();
/// Returns freed heap to the OS, then resets the VmHWM high-water mark by
/// writing 5 to /proc/self/clear_refs. False if the reset failed.
bool ResetPeakRss();

// ---- inputs and models -----------------------------------------------------

/// Generates the workload's scale graph inside a "data.MakeScaleGraph" span
/// and returns it with the generation time in seconds.
std::unique_ptr<data::Dataset> Generate(int64_t base_nodes, uint64_t seed,
                                        double* seconds);

/// Checks a generated dataset's DatasetDigest against the committed digest
/// for (base_nodes, seed) and against the first digest this run saw for it.
/// A seed missing from the table is checked for repeatability only.
void CheckDigest(const RunArgs& args, int64_t base_nodes, uint64_t seed,
                 const data::Dataset& ds, Result* result);

/// One timed SES (GCN backbone) Fit and the quality of the fitted model.
struct FitOutcome {
  std::unique_ptr<core::SesModel> model;
  double seconds = 0.0;   ///< wall time of SesModel::Fit
  tensor::Tensor logits;  ///< eval logits of every node
  bool finite = false;    ///< every logit is finite
  double test_acc = 0.0;
  double explain_auc = 0.0;
};

/// Fits a fresh model inside a "core.SesModel.Fit" span. Marks the run wrong
/// if the logits are not finite, or if `previous` (a Fit with the same
/// settings, or null) disagrees on accuracy or explanation AUC.
FitOutcome FitModel(const TrainSettings& settings, uint64_t seed,
                    const data::Dataset& ds, const FitOutcome* previous,
                    Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
