// Tests for the ses_obs observability layer: span recording/aggregation,
// disabled-mode zero-cost guarantees, Chrome-trace well-formedness, metrics
// registry semantics, and telemetry serialization.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.h"

// ---------------------------------------------------------------------------
// Global allocation counting. Replacing operator new for the whole test
// binary lets DisabledSpanAllocatesNothing assert the disabled span macro
// path never touches the heap.
static std::atomic<uint64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ses;

// Minimal recursive-descent JSON syntax checker — enough to prove the trace
// and metrics exporters emit well-formed JSON without a third-party parser.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      // JSON strings may not hold raw control characters.
      if (static_cast<unsigned char>(s_[pos_]) < 0x20) return false;
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::EnableTracing(false);
    obs::ResetTracing();
  }
  void TearDown() override {
    obs::EnableTracing(false);
    obs::ResetTracing();
    obs::Telemetry::Get().Close();
  }
};

// ------------------------------------------------------------------- spans

TEST_F(ObsTest, SpanNestingTracksDepth) {
  obs::EnableTracing(true);
  EXPECT_EQ(obs::CurrentSpanDepth(), 0);
  {
    SES_TRACE_SPAN("outer");
    EXPECT_EQ(obs::CurrentSpanDepth(), 1);
    {
      SES_TRACE_SPAN("inner");
      EXPECT_EQ(obs::CurrentSpanDepth(), 2);
    }
    EXPECT_EQ(obs::CurrentSpanDepth(), 1);
  }
  EXPECT_EQ(obs::CurrentSpanDepth(), 0);

  const auto events = obs::SnapshotEvents();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first; depth was recorded at close time.
  EXPECT_STREQ(events[0].label, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_STREQ(events[1].label, "outer");
  EXPECT_EQ(events[1].depth, 0);
  // The outer span contains the inner one in time.
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[1].start_ns + events[1].dur_ns,
            events[0].start_ns + events[0].dur_ns);
}

TEST_F(ObsTest, AggregationCountsAndTotals) {
  obs::EnableTracing(true);
  for (int i = 0; i < 3; ++i) {
    SES_TRACE_SPAN("agg_outer");
    for (int j = 0; j < 2; ++j) {
      SES_TRACE_SPAN("agg_inner");
    }
  }
  const auto stats = obs::AggregateSpanStats();
  uint64_t outer_count = 0, inner_count = 0;
  for (const auto& s : stats) {
    if (s.label == "agg_outer") {
      outer_count = s.count;
      EXPECT_GE(s.max_ns, s.min_ns);
      EXPECT_GE(s.total_ns, s.max_ns);
      EXPECT_GE(s.MeanNs(), 0.0);
    }
    if (s.label == "agg_inner") inner_count = s.count;
  }
  EXPECT_EQ(outer_count, 3u);
  EXPECT_EQ(inner_count, 6u);
}

TEST_F(ObsTest, RepeatedAggregationMatchesOneFoldOfEverySpan) {
  obs::EnableTracing(true);
  const auto record = [](int n) {
    for (int i = 0; i < n; ++i) {
      SES_TRACE_SPAN("agg_fold");
    }
  };
  const auto fold_stats = [] {
    for (const auto& s : obs::AggregateSpanStats())
      if (s.label == "agg_fold") return s;
    return obs::LabelStats{};
  };
  record(3000);
  EXPECT_EQ(fold_stats().count, 3000u);
  // The next calls fold only new events: these cross the first 4096-event
  // chunk of this thread's buffer and open a second thread's buffer.
  record(3000);
  std::thread([&record] { record(500); }).join();
  const obs::LabelStats folded = fold_stats();

  obs::LabelStats direct;
  for (const obs::TraceEvent& ev : obs::SnapshotEvents()) {
    direct.min_ns = direct.count == 0 ? ev.dur_ns
                                      : std::min(direct.min_ns, ev.dur_ns);
    direct.max_ns = std::max(direct.max_ns, ev.dur_ns);
    ++direct.count;
    direct.total_ns += ev.dur_ns;
  }
  EXPECT_EQ(folded.count, 6500u);
  EXPECT_EQ(folded.count, direct.count);
  EXPECT_EQ(folded.total_ns, direct.total_ns);
  EXPECT_EQ(folded.min_ns, direct.min_ns);
  EXPECT_EQ(folded.max_ns, direct.max_ns);

  obs::ResetTracing();
  EXPECT_TRUE(obs::AggregateSpanStats().empty());
  record(2);
  EXPECT_EQ(fold_stats().count, 2u);
}

TEST_F(ObsTest, DisabledSpanRecordsNothing) {
  ASSERT_FALSE(obs::TracingEnabled());
  {
    SES_TRACE_SPAN("invisible");
  }
  EXPECT_TRUE(obs::SnapshotEvents().empty());
}

TEST_F(ObsTest, DisabledSpanAllocatesNothing) {
  ASSERT_FALSE(obs::TracingEnabled());
  const uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 1000; ++i) {
    SES_TRACE_SPAN("hot_loop");
  }
  EXPECT_EQ(g_alloc_count.load(), before)
      << "span macro allocated while tracing was disabled";
}

TEST_F(ObsTest, SpanOpenAcrossEnableIsDroppedCleanly) {
  // A span constructed while disabled stays inert even if tracing flips on
  // before its destructor runs (label_ was never set).
  obs::EnableTracing(false);
  {
    SES_TRACE_SPAN("flipped");
    obs::EnableTracing(true);
  }
  EXPECT_TRUE(obs::SnapshotEvents().empty());
}

TEST_F(ObsTest, ResetDropsEvents) {
  obs::EnableTracing(true);
  {
    SES_TRACE_SPAN("gone");
  }
  ASSERT_FALSE(obs::SnapshotEvents().empty());
  obs::ResetTracing();
  EXPECT_TRUE(obs::SnapshotEvents().empty());
}

TEST_F(ObsTest, ManySpansCrossChunkBoundaries) {
  obs::EnableTracing(true);
  constexpr int kSpans = 10000;  // > one 4096-event chunk
  for (int i = 0; i < kSpans; ++i) {
    SES_TRACE_SPAN("chunked");
  }
  EXPECT_EQ(obs::SnapshotEvents().size(), static_cast<size_t>(kSpans));
}

// ------------------------------------------------------------ chrome trace

TEST_F(ObsTest, ChromeTraceIsWellFormedJson) {
  obs::EnableTracing(true);
  {
    SES_TRACE_SPAN("trace_outer");
    SES_TRACE_SPAN("trace_inner");
  }
  obs::EnableTracing(false);

  const std::string path = TempPath("ses_obs_trace.json");
  ASSERT_TRUE(obs::WriteChromeTrace(path));
  const std::string text = ReadFile(path);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonChecker(text).Valid()) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"trace_outer\""), std::string::npos);
  EXPECT_NE(text.find("\"trace_inner\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceEscapesLabels) {
  obs::EnableTracing(true);
  {
    SES_TRACE_SPAN("quote\"and\\slash");
  }
  obs::EnableTracing(false);
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  EXPECT_TRUE(JsonChecker(out.str()).Valid()) << out.str();
}

TEST_F(ObsTest, EmptyTraceIsStillValidJson) {
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  EXPECT_TRUE(JsonChecker(out.str()).Valid()) << out.str();
}

// ----------------------------------------------------------------- metrics

TEST(MetricsTest, CounterConcurrentIncrementsFromFourThreads) {
  auto& registry = obs::MetricsRegistry::Get();
  auto& counter = registry.GetCounter("test/concurrent_counter");
  counter.Reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  // Same name resolves to the same counter.
  EXPECT_EQ(registry.GetCounter("test/concurrent_counter").Value(),
            kThreads * kPerThread);
}

TEST(MetricsTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  auto& h = obs::MetricsRegistry::Get().GetHistogram("test/hist_edges",
                                                     {1.0, 2.0, 5.0});
  h.Observe(0.5);   // bucket 0
  h.Observe(1.0);   // bucket 0 (edge is inclusive)
  h.Observe(1.5);   // bucket 1
  h.Observe(2.0);   // bucket 1
  h.Observe(4.99);  // bucket 2
  h.Observe(5.0);   // bucket 2
  h.Observe(5.01);  // overflow
  h.Observe(1e9);   // overflow
  EXPECT_EQ(h.BucketCount(0), 2);
  EXPECT_EQ(h.BucketCount(1), 2);
  EXPECT_EQ(h.BucketCount(2), 2);
  EXPECT_EQ(h.BucketCount(3), 2);
  EXPECT_EQ(h.Count(), 8);
  EXPECT_NEAR(h.Sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.99 + 5.0 + 5.01 + 1e9, 1e-6);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  auto& g = obs::MetricsRegistry::Get().GetGauge("test/gauge");
  g.Set(1.5);
  g.Set(-3.25);
  EXPECT_DOUBLE_EQ(g.Value(), -3.25);
}

TEST(MetricsTest, SnapshotsAreWellFormed) {
  auto& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("test/snapshot_counter").Add(7);
  registry.GetGauge("test/snapshot_gauge").Set(2.5);
  registry.GetHistogram("test/snapshot_hist", {1.0, 10.0}).Observe(3.0);

  std::ostringstream out;
  obs::WriteMetricsExposition(out);
  const std::string text = out.str();
  // Every line is a `# TYPE` header or `name[{labels}] value`.
  std::istringstream lines(text);
  std::string line;
  int samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    const std::string value = line.substr(line.rfind(' ') + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_TRUE(*end == '\0' || value == "+Inf" || value == "NaN") << line;
    ++samples;
  }
  EXPECT_GE(samples, 3);
  EXPECT_NE(text.find("\ntest_snapshot_counter 7\n"), std::string::npos);
  EXPECT_NE(text.find("\ntest_snapshot_gauge 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("\ntest_snapshot_hist_count 1\n"), std::string::npos);
}

// --------------------------------------------------------------- telemetry

TEST(TelemetryTest, EpochRecordSerializesAsJson) {
  obs::EpochRecord record;
  record.model = "SES (GCN)";
  record.phase = "phase1";
  record.epoch = 12;
  record.loss = 0.75;
  record.grad_norm = 1.25;
  record.epoch_seconds = 0.01;
  record.val_metric = 0.8;
  const std::string json = obs::EpochRecordToJson(record);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"phase\":\"phase1\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":12"), std::string::npos);
}

TEST(TelemetryTest, EpochRecordEscapesModelAndPhase) {
  obs::EpochRecord record;
  record.model = "SES \"quoted\"\nname\\";
  record.phase = "phase\t1\x01";
  const std::string json = obs::EpochRecordToJson(record);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"model\":\"SES \\\"quoted\\\"\\nname\\\\\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"phase\":\"phase\\t1\\u0001\""), std::string::npos)
      << json;
}

TEST(TelemetryTest, NonFiniteNumbersSerializeAsNull) {
  // A poisoned step emits a NaN loss; the record must stay valid JSON (nan
  // and inf are not JSON literals).
  obs::EpochRecord record;
  record.model = "SES";
  record.phase = "phase1";
  record.loss = std::numeric_limits<double>::quiet_NaN();
  record.grad_norm = std::numeric_limits<double>::infinity();
  const std::string json = obs::EpochRecordToJson(record);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"loss\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"grad_norm\":null"), std::string::npos) << json;
  EXPECT_EQ(json.find(":nan"), std::string::npos) << json;
  EXPECT_EQ(json.find(":inf"), std::string::npos) << json;
}

TEST(TelemetryTest, JsonlSinkWritesOneLinePerRecord) {
  const std::string path = TempPath("ses_obs_telemetry.jsonl");
  ASSERT_TRUE(obs::Telemetry::Get().OpenJsonl(path));
  ASSERT_TRUE(obs::Telemetry::Get().active());
  for (int e = 0; e < 3; ++e) {
    obs::EpochRecord record;
    record.phase = "phase1";
    record.epoch = e;
    record.loss = 1.0 / (e + 1);
    obs::Telemetry::Get().Emit(record);
  }
  obs::Telemetry::Get().Close();
  EXPECT_FALSE(obs::Telemetry::Get().active());

  std::istringstream lines(ReadFile(path));
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(JsonChecker(line).Valid()) << line;
    ++count;
  }
  EXPECT_EQ(count, 3);
}

TEST(TelemetryTest, InactiveSinkDropsRecords) {
  obs::Telemetry::Get().Close();
  obs::EpochRecord record;
  record.epoch = 1;
  obs::Telemetry::Get().Emit(record);  // must not crash or write anywhere
  EXPECT_FALSE(obs::Telemetry::Get().active());
}

}  // namespace
