#include "obs/flight_recorder.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ses::obs {

namespace {

/// Heap ordering: a min-heap on e2e keeps the K-th slowest (= the heap
/// minimum) at the front for O(1) floor updates.
bool SlowerThan(const RequestRecord& a, const RequestRecord& b) {
  return a.e2e_us() > b.e2e_us();
}

double TraceUs(RequestRecord::Clock::time_point t) {
  return static_cast<double>(internal::TraceNsFromSteady(t)) / 1e3;
}

void AppendRecordJson(std::ostringstream* out, const RequestRecord& r) {
  *out << "{\"trace_id\":" << r.trace_id << ",\"op\":\"" << r.op
       << "\",\"reason\":\"" << r.outcome() << "\",\"error\":"
       << (r.error ? "true" : "false") << ",\"e2e_us\":" << r.e2e_us();
  const char* sep = ",\"stages_us\":{";
  for (int s = 0; s < RequestRecord::kNumStages; ++s) {
    *out << sep << '"' << RequestRecord::kStageNames[s]
         << "\":" << TraceUs(r.stamps[s]);
    sep = ",";
  }
  *out << "}}";
}

}  // namespace

FlightRecorder& FlightRecorder::Get() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Configure(int64_t top_k, double window_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  top_k_ = std::max<int64_t>(1, std::min<int64_t>(top_k, 4096));
  if (window_us > 0) window_us_ = window_us;
  // Shrinks take effect lazily; the floor resets so the next Record re-fills.
  floor_.store(-1.0, std::memory_order_relaxed);
}

void FlightRecorder::RollWindowIfDue(double now_us) {
  const double start = window_start_us_.load(std::memory_order_relaxed);
  if (now_us - start < window_us_ && start != 0.0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const double start2 = window_start_us_.load(std::memory_order_relaxed);
  if (now_us - start2 < window_us_ && start2 != 0.0) return;  // lost the race
  if (start2 != 0.0) previous_ = std::move(current_);
  current_.clear();
  floor_.store(-1.0, std::memory_order_relaxed);
  window_start_us_.store(now_us, std::memory_order_relaxed);
}

void FlightRecorder::Record(const RequestRecord& record) {
  RollWindowIfDue(TraceUs(record.stamps[RequestRecord::kResolve]));
  const double e2e_us = record.e2e_us();
  // Fast path: a full heap whose minimum beats this record means the record
  // can't place. The floor may be stale (another thread mid-insert); that
  // only lets a loser take the lock and get rejected below.
  const double floor = floor_.load(std::memory_order_relaxed);
  if (floor >= 0.0 && e2e_us <= floor) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (static_cast<int64_t>(current_.size()) < top_k_) {
    current_.push_back(record);
    std::push_heap(current_.begin(), current_.end(), SlowerThan);
    if (static_cast<int64_t>(current_.size()) == top_k_)
      floor_.store(current_.front().e2e_us(), std::memory_order_relaxed);
    return;
  }
  if (e2e_us <= current_.front().e2e_us()) return;
  std::pop_heap(current_.begin(), current_.end(), SlowerThan);
  current_.back() = record;
  std::push_heap(current_.begin(), current_.end(), SlowerThan);
  floor_.store(current_.front().e2e_us(), std::memory_order_relaxed);
}

std::vector<RequestRecord> FlightRecorder::Snapshot() const {
  std::vector<RequestRecord> merged;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    merged.reserve(current_.size() + previous_.size());
    merged.insert(merged.end(), current_.begin(), current_.end());
    merged.insert(merged.end(), previous_.begin(), previous_.end());
  }
  std::sort(merged.begin(), merged.end(), SlowerThan);
  return merged;
}

std::string FlightRecorder::SnapshotJson() const {
  int64_t top_k;
  double window_us;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    top_k = top_k_;
    window_us = window_us_;
  }
  const std::vector<RequestRecord> records = Snapshot();
  std::ostringstream out;
  out << "{\"top_k\":" << top_k << ",\"window_us\":" << window_us
      << ",\"dumps\":" << dumps() << ",\"records\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out << ',';
    AppendRecordJson(&out, records[i]);
  }
  out << "]}";
  return out.str();
}

void FlightRecorder::ArmAutoDump(const std::string& path,
                                 double burn_threshold) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dump_path_ = path;
  }
  burn_threshold_.store(burn_threshold, std::memory_order_relaxed);
  ready_.store(true, std::memory_order_relaxed);
  armed_.store(!path.empty() && burn_threshold > 0.0,
               std::memory_order_release);
}

void FlightRecorder::ObserveBurn(double burn) {
  if (!armed_.load(std::memory_order_acquire)) return;
  const double threshold = burn_threshold_.load(std::memory_order_relaxed);
  if (ready_.load(std::memory_order_relaxed)) {
    if (burn < threshold) return;
    // One dump per excursion: flip ready_ first so racing batches don't dump
    // twice (exchange is the arbiter).
    if (!ready_.exchange(false, std::memory_order_acq_rel)) return;
    std::string path;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      path = dump_path_;
    }
    if (DumpTo(path)) {
      dumps_.fetch_add(1, std::memory_order_relaxed);
      SES_LOG_INFO << "flight recorder: SLO burn " << burn << " >= "
                   << threshold << ", dumped slowest requests to " << path;
    }
    MetricsRegistry::Get().GetCounter("ses.flight.dumps").Add(1);
    return;
  }
  // Tripped: re-arm only after the burn recedes below half the threshold.
  if (burn < 0.5 * threshold) ready_.store(true, std::memory_order_relaxed);
}

bool FlightRecorder::DumpTo(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    SES_LOG_ERROR << "flight recorder: cannot open dump file " << path;
    return false;
  }
  out << SnapshotJson() << '\n';
  return out.good();
}

void FlightRecorder::ResetForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  current_.clear();
  previous_.clear();
  top_k_ = 32;
  window_us_ = 10e6;
  floor_.store(-1.0, std::memory_order_relaxed);
  window_start_us_.store(0.0, std::memory_order_relaxed);
  dump_path_.clear();
  burn_threshold_.store(0.0, std::memory_order_relaxed);
  armed_.store(false, std::memory_order_relaxed);
  ready_.store(true, std::memory_order_relaxed);
  dumps_.store(0, std::memory_order_relaxed);
}

}  // namespace ses::obs
