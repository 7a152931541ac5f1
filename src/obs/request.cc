#include "obs/request.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ses::obs {

thread_local uint64_t internal::t_current_trace_id = 0;

namespace {
/// Ids start at 1 so 0 can mean "no active request" everywhere.
std::atomic<uint64_t> g_next_trace_id{1};
}  // namespace

uint64_t RequestsStarted() {
  return g_next_trace_id.load(std::memory_order_relaxed) - 1;
}

uint64_t AllocateTraceId() {
  // Ids are reserved from the global counter in per-thread blocks so a
  // high-rate producer (the batch scheduler's submit path) pays one atomic
  // per kBlock allocations. Ids stay unique but are no longer globally
  // ordered by allocation time, and RequestsStarted becomes an upper bound
  // (it counts reserved ids).
  constexpr uint64_t kBlock = 64;
  thread_local uint64_t cache_next = 0;
  thread_local uint64_t cache_end = 0;
  if (cache_next == cache_end) {
    cache_next = g_next_trace_id.fetch_add(kBlock, std::memory_order_relaxed);
    cache_end = cache_next + kBlock;
  }
  return cache_next++;
}

AccessLog& AccessLog::Get() {
  static AccessLog* log = new AccessLog();
  return *log;
}

bool AccessLog::Open(const std::string& path) {
  auto out = std::make_shared<std::ofstream>(path);
  if (!*out) {
    SES_LOG_ERROR << "cannot open access log " << path;
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = std::move(out);
  active_.store(true, std::memory_order_relaxed);
  return true;
}

void AccessLog::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  active_.store(false, std::memory_order_relaxed);
  if (sink_) sink_->flush();
  sink_.reset();
}

void AccessLog::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sink_) sink_->flush();
}

void AccessLog::RecordSlow(const RequestRecord& record) {
  const std::string line = ToJson(record);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!sink_) return;
  *sink_ << line << '\n';
}

std::string AccessLog::ToJson(const RequestRecord& record) {
  std::ostringstream out;
  out << "{\"trace_id\":" << record.trace_id
      << ",\"op\":" << util::JsonQuote(record.op) << ",\"latency_us\":"
      << record.OffsetUs(RequestRecord::kForwardEnd)
      << ",\"cache_hit\":" << (record.cache_hit ? "true" : "false")
      << ",\"error\":" << (record.error ? "true" : "false")
      << ",\"reason\":\"" << record.outcome() << "\"";
  if (record.version >= 0) out << ",\"version\":" << record.version;
  if (record.has_stages) {
    const char* sep = ",\"stages_us\":{";
    for (int s = RequestRecord::kAdmit; s < RequestRecord::kNumStages; ++s) {
      out << sep << '"' << RequestRecord::kStageNames[s] << "\":"
          << record.OffsetUs(s);
      sep = ",";
    }
    out << "}";
  }
  out << ",\"digest\":\"";
  // Digest as fixed-width hex: JSON numbers lose precision past 2^53.
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(record.digest));
  out << hex << "\"}";
  return out.str();
}

namespace {

/// The gaps between consecutive stamps, as span labels and histogram names:
/// gap g runs from stage g to stage g + 1.
constexpr int kNumGaps = RequestRecord::kNumStages - 1;
constexpr const char* kGapSpans[kNumGaps] = {
    "sched/stage/admit", "sched/stage/seal", "sched/stage/queue",
    "sched/stage/forward", "sched/stage/resolve"};
constexpr const char* kGapHistograms[kNumGaps] = {
    "ses.sched.stage.admit_us", "ses.sched.stage.seal_us",
    "ses.sched.stage.queue_us", "ses.sched.stage.forward_us",
    "ses.sched.stage.resolve_us"};

/// One batched ObserveMany per gap histogram over the staged records, each
/// observation tagged with its trace id so a slow bucket names a request.
void ObserveStageGaps(const RequestRecord* records, int64_t n) {
  thread_local std::vector<uint64_t> ids;
  thread_local std::vector<double> gaps;
  ids.clear();
  for (int64_t i = 0; i < n; ++i)
    if (records[i].has_stages) ids.push_back(records[i].trace_id);
  if (ids.empty()) return;
  gaps.resize(ids.size());
  MetricsRegistry& registry = MetricsRegistry::Get();
  for (int g = 0; g < kNumGaps; ++g) {
    size_t k = 0;
    for (int64_t i = 0; i < n; ++i) {
      const RequestRecord& r = records[i];
      if (!r.has_stages) continue;
      gaps[k++] = std::chrono::duration<double, std::micro>(r.stamps[g + 1] -
                                                            r.stamps[g])
                      .count();
    }
    registry
        .GetHistogram(kGapHistograms[g], Histogram::DefaultLatencyEdgesUs())
        .ObserveMany(gaps.data(), ids.data(), static_cast<int64_t>(k));
  }
}

/// Retroactive critical-path spans under the request's own trace id, so the
/// Chrome trace shows its submit -> resolve pipeline as five adjacent spans
/// joined to the producer's spans.
void RecordStageSpans(const RequestRecord& r) {
  ScopedTraceId adopt(r.trace_id);
  SES_TRACE_SPAN("sched/complete");
  uint64_t ns[RequestRecord::kNumStages];
  for (int s = 0; s < RequestRecord::kNumStages; ++s)
    ns[s] = internal::TraceNsFromSteady(r.stamps[s]);
  for (int g = 0; g < kNumGaps; ++g)
    RecordManualSpan(kGapSpans[g], ns[g], ns[g + 1] - ns[g], r.trace_id);
}

}  // namespace

void PublishRequests(const RequestRecord* records, int64_t n) {
  ObserveStageGaps(records, n);
  FlightRecorder& recorder = FlightRecorder::Get();
  AccessLog& log = AccessLog::Get();
  const bool tracing = TracingEnabled();
  for (int64_t i = 0; i < n; ++i) {
    const RequestRecord& r = records[i];
    if (r.timed()) recorder.Record(r);
    if (tracing && r.has_stages) RecordStageSpans(r);
    log.Record(r);
  }
}

uint64_t RequestScope::Acquire(uint64_t* prev, bool* owner) {
  *prev = internal::t_current_trace_id;
  if (*prev != 0) {
    *owner = false;
    return *prev;
  }
  *owner = true;
  const uint64_t id = g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
  internal::t_current_trace_id = id;
  return id;
}

RequestScope::RequestScope(const char* op)
    : op_(op), trace_id_(Acquire(&prev_id_, &owner_)), span_(op) {
  if (owner_ && AccessLog::Get().active()) {
    measured_ = true;
    start_ = std::chrono::steady_clock::now();
  }
}

RequestScope::~RequestScope() {
  if (!owner_) return;
  internal::t_current_trace_id = prev_id_;
  if (!measured_) return;
  RequestRecord record;
  record.trace_id = trace_id_;
  record.op = op_;
  record.error = error_;
  record.cache_hit = cache_hit_;
  record.digest = digest_;
  record.version = version_;
  // Direct path: the whole request is one forward, so the inner stages
  // collapse onto its two clock readings.
  const auto end = std::chrono::steady_clock::now();
  for (int s = 0; s < RequestRecord::kNumStages; ++s)
    record.stamps[s] = s < RequestRecord::kForwardEnd ? start_ : end;
  PublishRequests(&record, 1);
}

}  // namespace ses::obs
