// Tests for the serving-grade observability layer: Prometheus exposition
// (parse-back, label escaping, bucket ordering), the embedded metrics
// server, request-scoped tracing and the access log, the flight recorder,
// model-health statistics, and registry thread-safety under a concurrent
// scrape. Run the binary under TSan (SES_SANITIZE=thread) to exercise the
// shared-lock registry paths with real data races on the line.
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/linear.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace {

using namespace ses;
using obs::MetricsRegistry;

/// A steady-clock time `us` microseconds after the trace epoch, so the
/// flight recorder's trace-epoch rendering of it reads exactly `us`.
obs::RequestRecord::Clock::time_point AtTraceUs(double us) {
  const auto now = std::chrono::steady_clock::now();
  const auto epoch = now - std::chrono::nanoseconds(
                               obs::internal::TraceNsFromSteady(now));
  return epoch + std::chrono::nanoseconds(std::llround(us * 1e3));
}

/// A record whose six stage stamps sit at `stage_us` on the trace epoch.
obs::RequestRecord RecordAt(
    uint64_t trace_id, const char* op,
    const double (&stage_us)[obs::RequestRecord::kNumStages]) {
  obs::RequestRecord rec;
  rec.trace_id = trace_id;
  rec.op = op;
  for (int s = 0; s < obs::RequestRecord::kNumStages; ++s)
    rec.stamps[s] = AtTraceUs(stage_us[s]);
  return rec;
}

/// Drops all singleton observability state. ModelHealthMonitor caches
/// registry pointers, so it must be reset before the registry that owns them.
void ResetObsState() {
  obs::ModelHealthMonitor::Get().ResetForTest();
  obs::FlightRecorder::Get().ResetForTest();
  MetricsRegistry::Get().ResetForTest();
  obs::ResetTracing();
  obs::EnableTracing(false);
  obs::AccessLog::Get().Close();
}

// ---------------------------------------------------------------------------
// Prometheus exposition: a small parser strong enough to prove the exporter
// round-trips names, labels and histogram series.

struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// Parses `name{k="v",...} value` with Prometheus label unescaping.
PromSample ParseSample(const std::string& line) {
  PromSample sample;
  size_t pos = line.find('{');
  const size_t space = line.rfind(' ');
  if (pos == std::string::npos || pos > space) {
    pos = line.find(' ');
    sample.name = line.substr(0, pos);
  } else {
    sample.name = line.substr(0, pos);
    ++pos;  // past '{'
    while (line[pos] != '}') {
      const size_t eq = line.find('=', pos);
      const std::string key = line.substr(pos, eq - pos);
      pos = eq + 2;  // past ="
      std::string value;
      while (line[pos] != '"') {
        if (line[pos] == '\\') {
          ++pos;
          if (line[pos] == 'n') value += '\n';
          else value += line[pos];
          ++pos;
          continue;
        }
        value += line[pos++];
      }
      ++pos;  // past closing quote
      sample.labels[key] = value;
      if (line[pos] == ',') ++pos;
    }
  }
  sample.value = std::stod(line.substr(space + 1));
  return sample;
}

TEST(PrometheusTest, LabelValuesRoundTripThroughEscaping) {
  ResetObsState();
  auto& registry = MetricsRegistry::Get();
  const std::string tricky = "a\"b\\c\nd,e={}";
  registry.GetCounter("ses.test.requests", {{"op", tricky}}).Add(7);

  std::ostringstream out;
  registry.WritePrometheus(out);
  bool found = false;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    const PromSample sample = ParseSample(line);
    if (sample.name != "ses_test_requests") continue;
    found = true;
    EXPECT_EQ(sample.labels.at("op"), tricky);
    EXPECT_DOUBLE_EQ(sample.value, 7.0);
  }
  EXPECT_TRUE(found);
}

TEST(PrometheusTest, LabelOrderIsCanonicalAcrossCallSites) {
  ResetObsState();
  auto& registry = MetricsRegistry::Get();
  obs::Counter& a =
      registry.GetCounter("ses.test.c", {{"x", "1"}, {"y", "2"}});
  obs::Counter& b =
      registry.GetCounter("ses.test.c", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b) << "label order must not create a second time series";
}

TEST(PrometheusTest, HistogramSeriesIsCumulativeWithAscendingLe) {
  ResetObsState();
  auto& registry = MetricsRegistry::Get();
  obs::Histogram& hist =
      registry.GetHistogram("ses.test.latency", {{"op", "q"}}, {1.0, 2.0, 10.0});
  hist.Observe(0.5);
  hist.Observe(1.5);
  hist.Observe(5.0);
  hist.Observe(100.0);

  std::ostringstream out;
  registry.WritePrometheus(out);
  std::istringstream lines(out.str());
  std::vector<PromSample> buckets;
  int type_headers = 0;
  double sum = -1, count = -1;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("# TYPE ses_test_latency", 0) == 0) {
      ++type_headers;
      EXPECT_NE(line.find("histogram"), std::string::npos);
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const PromSample sample = ParseSample(line);
    if (sample.name == "ses_test_latency_bucket") buckets.push_back(sample);
    if (sample.name == "ses_test_latency_sum") sum = sample.value;
    if (sample.name == "ses_test_latency_count") count = sample.value;
  }
  EXPECT_EQ(type_headers, 1) << "exactly one # TYPE line per family";
  ASSERT_EQ(buckets.size(), 4u);  // 3 edges + +Inf
  // Cumulative counts: <=1 -> 1, <=2 -> 2, <=10 -> 3, +Inf -> 4.
  EXPECT_EQ(buckets[0].labels.at("le"), "1");
  EXPECT_DOUBLE_EQ(buckets[0].value, 1.0);
  EXPECT_DOUBLE_EQ(buckets[1].value, 2.0);
  EXPECT_DOUBLE_EQ(buckets[2].value, 3.0);
  EXPECT_EQ(buckets[3].labels.at("le"), "+Inf");
  EXPECT_DOUBLE_EQ(buckets[3].value, 4.0);
  for (const auto& b : buckets) EXPECT_EQ(b.labels.at("op"), "q");
  EXPECT_DOUBLE_EQ(sum, 107.0);
  EXPECT_DOUBLE_EQ(count, 4.0);
}

TEST(HistogramTest, QuantilesInterpolateInsideBuckets) {
  obs::Histogram hist({10.0, 20.0, 40.0});
  // 10 observations in (10, 20]: the q-th observation interpolates linearly
  // across that bucket's width.
  for (int i = 0; i < 10; ++i) hist.Observe(15.0);
  EXPECT_DOUBLE_EQ(hist.P50(), 15.0);   // 5th of 10 -> midpoint of (10, 20]
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), 20.0);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.0), 10.0);
  // Overflow observations saturate at the last edge instead of inventing an
  // upper bound.
  hist.Observe(1e9);
  EXPECT_DOUBLE_EQ(hist.P999(), 40.0);
  EXPECT_EQ(hist.Count(), 11);
}

// ---------------------------------------------------------------------------
// Embedded metrics server, exercised through a real socket.

/// Connects a loopback client to `port`. Every recv on the socket gives up
/// after 5 s, so a wedged server fails the test instead of hanging it.
int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const timeval recv_timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
               sizeof(recv_timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

/// Sends `request` and reads until the server closes the connection (or the
/// 5 s receive timeout expires, leaving the response short).
std::string HttpGet(uint16_t port, const std::string& request) {
  const int fd = ConnectLoopback(port);
  EXPECT_GT(::send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
  std::string response;
  char buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;)
    response.append(buf, static_cast<size_t>(n));
  ::close(fd);
  return response;
}

TEST(MetricsServerTest, ServesMetricsHealthzAndSpansOnEphemeralPort) {
  ResetObsState();
  MetricsRegistry::Get().GetCounter("ses.test.live").Add(3);
  obs::RegisterHealthProvider("t.server",
                              [] { return std::string("{\"up\":true}"); });

  obs::MetricsServer server;
  ASSERT_TRUE(server.Start(0));
  ASSERT_NE(server.port(), 0);

  const std::string metrics =
      HttpGet(server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("ses_test_live 3"), std::string::npos);

  const std::string health =
      HttpGet(server.port(), "GET /healthz?verbose=1 HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"t.server\":{\"up\":true}"), std::string::npos);
  obs::UnregisterHealthProvider("t.server");

  // Span aggregates are labeled series on /metrics; /spans is gone.
  obs::EnableTracing(true);
  { SES_TRACE_SPAN("t.server.span"); }
  obs::EnableTracing(false);
  EXPECT_NE(HttpGet(server.port(), "GET /metrics HTTP/1.0\r\n\r\n")
                .find("ses_span_count{label=\"t.server.span\"} 1"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "GET /spans HTTP/1.0\r\n\r\n")
                .find("404 Not Found"),
            std::string::npos);

  EXPECT_NE(HttpGet(server.port(), "GET /nope HTTP/1.0\r\n\r\n")
                .find("404 Not Found"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "POST /metrics HTTP/1.0\r\n\r\n")
                .find("405 Method Not Allowed"),
            std::string::npos);

  EXPECT_GE(server.requests_served(), 5);
  server.Stop();
}

TEST(MetricsServerTest, LargeScrapeBodySurvivesPartialSends) {
  ResetObsState();
  // Thousands of labeled series push the /metrics body well past any socket
  // buffer, forcing SendAll through multiple partial send() calls. The body
  // must arrive complete and match its Content-Length exactly — a truncated
  // scrape silently drops whole metric families.
  auto& registry = MetricsRegistry::Get();
  for (int i = 0; i < 4000; ++i) {
    // append(), not `literal + std::string`: GCC 12 reports a false
    // -Wrestrict on the inlined operator+.
    std::string kernel = "k";
    kernel.append(std::to_string(i));
    std::string variant = "a_rather_long_variant_label_value_";
    variant.append(std::to_string(i));
    registry
        .GetCounter("ses.test.big", {{"kernel", kernel}, {"variant", variant}})
        .Add(i);
  }

  obs::MetricsServer server;
  ASSERT_TRUE(server.Start(0));
  const std::string response =
      HttpGet(server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  server.Stop();

  const size_t header_end = response.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  const std::string headers = response.substr(0, header_end);
  const std::string body = response.substr(header_end + 4);
  EXPECT_GT(body.size(), 256u * 1024) << "test body too small to be probative";

  const size_t cl = headers.find("Content-Length: ");
  ASSERT_NE(cl, std::string::npos);
  const size_t declared =
      std::stoul(headers.substr(cl + std::strlen("Content-Length: ")));
  EXPECT_EQ(body.size(), declared)
      << "scrape body truncated: partial send() handling is broken";
  // The last series written must have made it through intact.
  EXPECT_NE(body.find("kernel=\"k3999\""), std::string::npos);
  EXPECT_EQ(server.port(), 0);
  // A stopped server can be restarted.
  ASSERT_TRUE(server.Start(0));
  server.Stop();
}

TEST(MetricsServerTest, IdleClientWedgesNeitherScrapesNorStop) {
  ResetObsState();
  obs::MetricsServer server;
  ASSERT_TRUE(server.Start(0));

  // A client that connects and never sends a byte holds the serve thread
  // until its receive timeout; the next scrape must still be answered.
  int idle = ConnectLoopback(server.port());
  const auto start = std::chrono::steady_clock::now();
  const std::string metrics =
      HttpGet(server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  const double waited_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos)
      << "a scrape went unanswered behind an idle client";
  EXPECT_LT(waited_s, 5.0);
  ::close(idle);

  // Stop() while the serve thread sits on another idle client. It runs on a
  // helper thread: if it does not return within 5 s the test closes the idle
  // client, which frees a wedged server, and fails instead of hanging.
  idle = ConnectLoopback(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::promise<void> stopped;
  std::future<void> stop_done = stopped.get_future();
  std::thread stopper([&] {
    server.Stop();
    stopped.set_value();
  });
  const bool returned = stop_done.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  ::close(idle);
  stopper.join();
  EXPECT_TRUE(returned) << "Stop() hung behind an idle client";
}

TEST(MetricsServerTest, MalformedRequestLinesGetAWellFormedReply) {
  ResetObsState();
  obs::MetricsServer server;
  ASSERT_TRUE(server.Start(0));

  std::vector<std::string> requests = {
      "\r\n",
      "GET\r\n",
      "GET /" + std::string(2043, 'a'),  // 2 KB, no newline
      std::string("GET /met\0rics HTTP/1.0\r\n\r\n", 26),
      std::string("\0\0\0\r\n", 5),
      "get /metrics HTTP/1.0\r\n\r\n",
      "GET ?verbose=1 HTTP/1.0\r\n\r\n",
      "GET /metrics?verbose=1&x HTTP/1.0\r\n\r\n",
  };
  // Seeded noise over the bytes the request-line parser cares about.
  const std::string alphabet("GET /?metrics\r\n\t\0\xff", 18);
  util::Rng rng(33);
  for (int i = 0; i < 24; ++i) {
    std::string request(1 + rng.UniformInt(300), ' ');
    for (char& c : request) c = alphabet[rng.UniformInt(alphabet.size())];
    requests.push_back(std::move(request));
  }

  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const std::string response = HttpGet(server.port(), requests[i]);
    ASSERT_GE(response.size(), 12u) << "no reply";
    const std::string status = response.substr(0, 12);
    EXPECT_TRUE(status == "HTTP/1.0 200" || status == "HTTP/1.0 404" ||
                status == "HTTP/1.0 405")
        << status;
    const size_t header_end = response.find("\r\n\r\n");
    ASSERT_NE(header_end, std::string::npos);
    const size_t cl = response.find("Content-Length: ");
    ASSERT_LT(cl, header_end);
    const size_t declared =
        std::stoul(response.substr(cl + std::strlen("Content-Length: ")));
    EXPECT_EQ(response.size() - header_end - 4, declared);
  }

  const std::string health =
      HttpGet(server.port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Request scopes: trace-id allocation, propagation, span tagging, access log.

TEST(RequestScopeTest, NestedScopesShareOneIdAndThreadsGetFreshOnes) {
  ResetObsState();
  uint64_t outer_id = 0, inner_id = 0, thread_id = 0;
  {
    obs::RequestScope outer("op.outer");
    outer_id = outer.trace_id();
    EXPECT_TRUE(outer.owner());
    EXPECT_EQ(obs::CurrentTraceId(), outer_id);
    {
      obs::RequestScope inner("op.inner");
      inner_id = inner.trace_id();
      EXPECT_FALSE(inner.owner());
    }
    // A sibling thread is outside the request: it must not inherit the id.
    std::thread([&] {
      EXPECT_EQ(obs::CurrentTraceId(), 0u);
      obs::RequestScope scope("op.thread");
      thread_id = scope.trace_id();
    }).join();
  }
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  EXPECT_NE(outer_id, 0u);
  EXPECT_EQ(inner_id, outer_id);
  EXPECT_NE(thread_id, outer_id);
}

TEST(RequestScopeTest, SpansOpenedInsideARequestCarryItsTraceId) {
  ResetObsState();
  obs::EnableTracing(true);
  uint64_t id = 0;
  {
    obs::RequestScope scope("op.traced");
    id = scope.trace_id();
    SES_TRACE_SPAN("op.traced.child");
  }
  { SES_TRACE_SPAN("op.orphan"); }
  int tagged = 0;
  for (const obs::TraceEvent& ev : obs::SnapshotEvents()) {
    if (std::string(ev.label) == "op.orphan") {
      EXPECT_EQ(ev.trace_id, 0u);
    }
    if (ev.trace_id == id) ++tagged;
  }
  EXPECT_GE(tagged, 2) << "the request span and its child must both be tagged";
}

TEST(AccessLogTest, EntrySerializationMatchesTheDocumentedSchema) {
  // A direct-path record: one 12.5 us forward.
  obs::RequestRecord entry =
      RecordAt(42, "infer.predict", {100, 100, 100, 100, 112.5, 112.5});
  entry.cache_hit = true;
  entry.digest = 0xdeadbeefull;
  // Reason is always present: empty defaults to "ok" on success so the CI
  // forensics joins (jq .reason) never hit a missing key.
  EXPECT_EQ(obs::AccessLog::ToJson(entry),
            "{\"trace_id\":42,\"op\":\"infer.predict\",\"latency_us\":12.5,"
            "\"cache_hit\":true,\"error\":false,\"reason\":\"ok\","
            "\"digest\":\"00000000deadbeef\"}");

  // An error with no explicit reason defaults to "error"; an explicit reason
  // wins over both defaults.
  entry.error = true;
  EXPECT_NE(obs::AccessLog::ToJson(entry).find("\"reason\":\"error\""),
            std::string::npos);
  entry.reason = "deadline";
  EXPECT_NE(obs::AccessLog::ToJson(entry).find("\"reason\":\"deadline\""),
            std::string::npos);
}

TEST(AccessLogTest, StageOffsetsSerializeInCriticalPathOrder) {
  obs::RequestRecord entry =
      RecordAt(7, "sched.predict", {100, 101.5, 110, 112, 150, 160});
  entry.has_stages = true;
  const std::string line = obs::AccessLog::ToJson(entry);
  EXPECT_NE(line.find("\"stages_us\":{\"admit\":1.5,\"seal\":10,"
                      "\"forward_start\":12,\"forward_end\":50,"
                      "\"resolve\":60}"),
            std::string::npos)
      << line;
  // Direct-path entries (has_stages unset) must not emit the block at all.
  entry.has_stages = false;
  EXPECT_EQ(obs::AccessLog::ToJson(entry).find("stages_us"),
            std::string::npos);
}

TEST(AccessLogTest, VersionSerializesOnlyWhenKnown) {
  obs::RequestRecord entry =
      RecordAt(9, "sched.predict", {100, 100, 100, 100, 110, 110});
  // Unknown (-1) is absent, never a fake 0.
  EXPECT_EQ(obs::AccessLog::ToJson(entry).find("\"version\""),
            std::string::npos);
  entry.version = 0;
  EXPECT_NE(obs::AccessLog::ToJson(entry).find(
                "\"reason\":\"ok\",\"version\":0,"),
            std::string::npos);
  entry.version = 12;
  EXPECT_NE(obs::AccessLog::ToJson(entry).find("\"version\":12,"),
            std::string::npos);
}

TEST(AccessLogTest, RequestScopesWriteOneLineEach) {
  ResetObsState();
  const std::string path = ::testing::TempDir() + "/access_log_test.jsonl";
  ASSERT_TRUE(obs::AccessLog::Get().Open(path));
  {
    obs::RequestScope scope("op.logged");
    scope.NoteCacheHit(true);
    scope.SetDigest(7);
    obs::RequestScope nested("op.silent");  // not the owner: no line
  }
  obs::AccessLog::Get().Close();
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"op\":\"op.logged\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"cache_hit\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"digest\":\"0000000000000007\""),
            std::string::npos);
}

TEST(HealthRegistryTest, ProvidersRegisterReplaceAndUnregister) {
  obs::RegisterHealthProvider("t.zeta", [] { return std::string("{\"z\":1}"); });
  obs::RegisterHealthProvider("t.alpha",
                              [] { return std::string("{\"a\":1}"); });

  auto find = [](const std::string& name)
      -> std::pair<int, std::string> {  // (sorted index, json) or (-1, "")
    const auto components = obs::CollectHealthComponents();
    for (size_t i = 0; i < components.size(); ++i)
      if (components[i].first == name)
        return {static_cast<int>(i), components[i].second};
    return {-1, ""};
  };

  // Both visible, sorted by name regardless of registration order.
  const auto alpha = find("t.alpha");
  const auto zeta = find("t.zeta");
  ASSERT_NE(alpha.first, -1);
  ASSERT_NE(zeta.first, -1);
  EXPECT_LT(alpha.first, zeta.first);
  EXPECT_EQ(alpha.second, "{\"a\":1}");

  // Re-registering a name replaces the provider in place.
  obs::RegisterHealthProvider("t.alpha",
                              [] { return std::string("{\"a\":2}"); });
  EXPECT_EQ(find("t.alpha").second, "{\"a\":2}");

  // Registered components render into /healthz under "components".
  obs::MetricsServer server;
  ASSERT_TRUE(server.Start(0));
  const std::string health = HttpGet(server.port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("\"t.alpha\":{\"a\":2}"), std::string::npos);
  server.Stop();

  obs::UnregisterHealthProvider("t.zeta");
  obs::UnregisterHealthProvider("t.alpha");
  EXPECT_EQ(find("t.zeta").first, -1);
  EXPECT_EQ(find("t.alpha").first, -1);
  // Unregistering a never-registered name is a no-op.
  obs::UnregisterHealthProvider("t.never");
}

TEST(HistogramTest, ObserveManyMatchesNObserves) {
  obs::Histogram one(obs::Histogram::ExponentialEdges(1.0, 2.0, 8));
  obs::Histogram many(obs::Histogram::ExponentialEdges(1.0, 2.0, 8));
  std::vector<double> values;
  util::Rng rng(7);
  for (int i = 0; i < 257; ++i)
    values.push_back(rng.Uniform() * 300.0);  // spills into overflow too
  for (double v : values) one.Observe(v);
  many.ObserveMany(values.data(), static_cast<int64_t>(values.size()));
  ASSERT_EQ(many.Count(), one.Count());
  EXPECT_DOUBLE_EQ(many.Sum(), one.Sum());
  for (size_t b = 0; b <= many.edges().size(); ++b)
    EXPECT_EQ(many.BucketCount(b), one.BucketCount(b)) << "bucket " << b;
  EXPECT_DOUBLE_EQ(many.P99(), one.P99());
}

// ---------------------------------------------------------------------------
// Histogram exemplars: the per-bucket trace-id reservoir plus the OpenMetrics
// exposition suffix that joins a scraped bucket back to the access log and
// Chrome trace (DESIGN.md §15).

TEST(HistogramExemplarTest, TracedObservationsAreKeptLastWriteWins) {
  obs::Histogram hist({1.0, 2.0, 10.0});
  obs::Histogram::Exemplar ex;
  // Untraced observations never write the reservoir.
  hist.Observe(1.5);
  EXPECT_FALSE(hist.ReadExemplar(1, &ex));
  hist.Observe(1.5, /*trace_id=*/77);
  ASSERT_TRUE(hist.ReadExemplar(1, &ex));
  EXPECT_EQ(ex.trace_id, 77u);
  EXPECT_DOUBLE_EQ(ex.value, 1.5);
  // Last write wins within the bucket; other buckets stay empty.
  hist.Observe(1.9, 78);
  ASSERT_TRUE(hist.ReadExemplar(1, &ex));
  EXPECT_EQ(ex.trace_id, 78u);
  EXPECT_DOUBLE_EQ(ex.value, 1.9);
  EXPECT_FALSE(hist.ReadExemplar(0, &ex));
  EXPECT_FALSE(hist.ReadExemplar(2, &ex));
  EXPECT_FALSE(hist.ReadExemplar(3, &ex));
  // A later untraced observation must not clobber the stored exemplar.
  hist.Observe(1.2);
  ASSERT_TRUE(hist.ReadExemplar(1, &ex));
  EXPECT_EQ(ex.trace_id, 78u);
}

TEST(HistogramExemplarTest, ObserveInsideARequestScopeUsesItsTraceId) {
  ResetObsState();
  obs::Histogram hist({10.0});
  uint64_t id = 0;
  {
    obs::RequestScope scope("op.exemplar");
    id = scope.trace_id();
    hist.Observe(3.0);
  }
  obs::Histogram::Exemplar ex;
  ASSERT_TRUE(hist.ReadExemplar(0, &ex));
  EXPECT_EQ(ex.trace_id, id);
  // Outside any request CurrentTraceId() is 0: nothing is recorded.
  obs::Histogram bare({10.0});
  bare.Observe(3.0);
  EXPECT_FALSE(bare.ReadExemplar(0, &ex));
}

TEST(HistogramExemplarTest, ObserveManyKeepsTheLastTracedValuePerBucket) {
  obs::Histogram hist({1.0, 2.0, 10.0});
  const double values[] = {0.5, 1.5, 1.7, 100.0, 5.0};
  const uint64_t ids[] = {11, 12, 13, 14, 0};
  hist.ObserveMany(values, ids, 5);
  obs::Histogram::Exemplar ex;
  ASSERT_TRUE(hist.ReadExemplar(0, &ex));
  EXPECT_EQ(ex.trace_id, 11u);
  ASSERT_TRUE(hist.ReadExemplar(1, &ex));
  EXPECT_EQ(ex.trace_id, 13u) << "last traced value in (1,2] was 1.7 / id 13";
  EXPECT_DOUBLE_EQ(ex.value, 1.7);
  // Trace id 0 means untraced: the 5.0 landed in (2,10] but left no exemplar.
  EXPECT_FALSE(hist.ReadExemplar(2, &ex));
  ASSERT_TRUE(hist.ReadExemplar(3, &ex));
  EXPECT_EQ(ex.trace_id, 14u);
  // A null id array behaves exactly like the untraced overload.
  obs::Histogram plain({1.0, 2.0, 10.0});
  plain.ObserveMany(values, nullptr, 5);
  EXPECT_FALSE(plain.ReadExemplar(0, &ex));
  EXPECT_EQ(plain.Count(), 5);
}

/// Splits an OpenMetrics exemplar suffix (` # {trace_id="N"} V`) off a
/// /metrics line, leaving the plain sample behind for ParseSample.
struct ExemplarSuffix {
  bool present = false;
  uint64_t trace_id = 0;
  double value = 0.0;
};
ExemplarSuffix SplitExemplar(std::string* line) {
  ExemplarSuffix ex;
  const size_t hash = line->find(" # {");
  if (hash == std::string::npos) return ex;
  const std::string suffix = line->substr(hash + 3);
  line->resize(hash);
  ex.present = true;
  ex.trace_id = std::stoull(suffix.substr(suffix.find("trace_id=\"") + 10));
  // The exporter omits the optional timestamp precisely so this final
  // whitespace-separated token is a plain float.
  ex.value = std::stod(suffix.substr(suffix.rfind(' ') + 1));
  return ex;
}

TEST(PrometheusTest, ExemplarsRenderInOpenMetricsSyntax) {
  ResetObsState();
  auto& registry = MetricsRegistry::Get();
  // A tricky label value proves the exemplar suffix composes with escaping.
  const std::string tricky = "a\"b\\c";
  obs::Histogram& hist = registry.GetHistogram(
      "ses.test.exm", {{"op", tricky}}, {1.0, 2.0, 10.0});
  hist.Observe(0.4);                   // untraced: le="1" stays exemplar-free
  hist.Observe(1.5, /*trace_id=*/77);  // traced: le="2" carries it

  std::ostringstream out;
  registry.WritePrometheus(out);
  std::istringstream lines(out.str());
  int with_exemplar = 0, without = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("ses_test_exm_bucket", 0) != 0) continue;
    const ExemplarSuffix ex = SplitExemplar(&line);
    const PromSample sample = ParseSample(line);
    EXPECT_EQ(sample.labels.at("op"), tricky);
    if (ex.present) {
      ++with_exemplar;
      EXPECT_EQ(sample.labels.at("le"), "2");
      EXPECT_EQ(ex.trace_id, 77u) << "decimal id joins the access log";
      EXPECT_DOUBLE_EQ(ex.value, 1.5);
      EXPECT_DOUBLE_EQ(sample.value, 2.0)
          << "cumulative bucket count, not the exemplar value";
    } else {
      ++without;
    }
  }
  EXPECT_EQ(with_exemplar, 1) << "only the (1,2] bucket saw a traced hit";
  EXPECT_EQ(without, 3) << "le=1, le=10 and +Inf stay clean";
}

TEST(MetricsRegistryTest, ExemplarWritesRaceScrapesSafely) {
  ResetObsState();
  auto& registry = MetricsRegistry::Get();
  obs::Histogram& hist =
      registry.GetHistogram("ses.test.exm_hammer", {1.0, 10.0, 100.0});
  std::atomic<bool> stop{false};
  // Scraper thread: full exposition plus direct seqlock reads. Run under
  // TSan to put the lossy writer/bounded-retry reader races on the line.
  std::thread scraper([&] {
    while (!stop.load()) {
      std::ostringstream out;
      registry.WritePrometheus(out);
      obs::Histogram::Exemplar ex;
      for (size_t b = 0; b < 4; ++b) {
        if (hist.ReadExemplar(b, &ex)) {
          EXPECT_NE(ex.trace_id, 0u);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&hist, t] {
      std::vector<double> batch(16);
      std::vector<uint64_t> ids(16);
      for (int i = 1; i <= 1000; ++i) {
        hist.Observe(static_cast<double>(i % 150), static_cast<uint64_t>(i));
        for (int j = 0; j < 16; ++j) {
          batch[static_cast<size_t>(j)] = static_cast<double>((i + j) % 150);
          ids[static_cast<size_t>(j)] =
              static_cast<uint64_t>(t * 1'000'000 + i + j);
        }
        hist.ObserveMany(batch.data(), ids.data(), 16);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  scraper.join();
  EXPECT_EQ(hist.Count(), 3 * 1000 * 17) << "counts are exact, only exemplars are lossy";
  // Quiescent reads see the last writer in every bucket (values 0..149 cover
  // all four buckets with nonzero ids).
  obs::Histogram::Exemplar ex;
  for (size_t b = 0; b < 4; ++b)
    EXPECT_TRUE(hist.ReadExemplar(b, &ex)) << "bucket " << b;
}

// ---------------------------------------------------------------------------
// Flight recorder: top-K retention, window roll, queue-wait auto-dump.

/// A direct-path record resolving at `resolve_us` on the trace epoch after
/// an end-to-end latency of `e2e_us`.
obs::RequestRecord DirectRecordAt(uint64_t trace_id, double resolve_us,
                                  double e2e_us) {
  const double submit_us = resolve_us - e2e_us;
  return RecordAt(trace_id, "t.op", {submit_us, submit_us, submit_us,
                                     submit_us, resolve_us, resolve_us});
}

TEST(FlightRecorderTest, KeepsTheTopKSlowestSlowestFirst) {
  auto& recorder = obs::FlightRecorder::Get();
  recorder.ResetForTest();
  recorder.Configure(/*top_k=*/4, /*window_us=*/1e12);
  for (int i = 1; i <= 10; ++i) {
    // One window for everything; e2e 7,3,10,6,2,9,5,1,8,4.
    recorder.Record(DirectRecordAt(static_cast<uint64_t>(i), 1000.0,
                                   static_cast<double>((i * 7) % 11)));
  }
  const auto snap = recorder.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_DOUBLE_EQ(snap[0].e2e_us(), 10.0);
  EXPECT_DOUBLE_EQ(snap[1].e2e_us(), 9.0);
  EXPECT_DOUBLE_EQ(snap[2].e2e_us(), 8.0);
  EXPECT_DOUBLE_EQ(snap[3].e2e_us(), 7.0);
  recorder.ResetForTest();
}

TEST(FlightRecorderTest, WindowRollRetiresCurrentAndServesTwoWindows) {
  auto& recorder = obs::FlightRecorder::Get();
  recorder.ResetForTest();
  recorder.Configure(/*top_k=*/8, /*window_us=*/1000.0);
  auto record_at = [&](uint64_t id, double resolve_us, double e2e_us) {
    recorder.Record(DirectRecordAt(id, resolve_us, e2e_us));
  };
  record_at(1, 100.0, 5.0);   // window A opens at 100
  record_at(2, 1500.0, 3.0);  // 1400us elapsed: A retires to previous
  ASSERT_EQ(recorder.Snapshot().size(), 2u)
      << "/debug/slowest keeps the previous window for context";
  record_at(3, 2900.0, 4.0);  // B retires; window A's record ages out
  const auto snap = recorder.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].trace_id, 3u);  // merged output stays slowest-first
  EXPECT_EQ(snap[1].trace_id, 2u);
  recorder.ResetForTest();
}

/// A scheduled record resolving at `resolve_us` that waited `queue_us`
/// between submit and forward-start and then ran for 10 us.
obs::RequestRecord QueuedRecordAt(uint64_t trace_id, double resolve_us,
                                  double queue_us) {
  const double start_us = resolve_us - 10.0;
  const double submit_us = start_us - queue_us;
  return RecordAt(trace_id, "t.sched", {submit_us, submit_us, submit_us,
                                        start_us, resolve_us, resolve_us});
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  return body.str();
}

TEST(FlightRecorderTest, RecordsWithinTheQueueWaitBudgetDoNotDump) {
  ResetObsState();
  auto& recorder = obs::FlightRecorder::Get();
  const std::string path = ::testing::TempDir() + "/flight_dump_quiet.json";
  std::remove(path.c_str());
  recorder.ArmAutoDump(path, /*queue_wait_budget_us=*/100.0);
  recorder.Record(QueuedRecordAt(1, 1000.0, /*queue_us=*/50.0));
  recorder.Record(QueuedRecordAt(2, 1100.0, /*queue_us=*/100.0));  // at budget
  // A direct-path record waits 0 us however slow its forward is.
  recorder.Record(DirectRecordAt(3, 1200.0, /*e2e_us=*/1e6));
  EXPECT_EQ(recorder.dumps(), 0);
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_EQ(recorder.Snapshot().size(), 3u) << "quiet records still recorded";
  recorder.ResetForTest();
}

TEST(FlightRecorderTest, FirstBreachDumpsAFileHoldingTheBreachingRecord) {
  ResetObsState();
  auto& recorder = obs::FlightRecorder::Get();
  const std::string path = ::testing::TempDir() + "/flight_dump_breach.json";
  std::remove(path.c_str());
  recorder.ArmAutoDump(path, /*queue_wait_budget_us=*/100.0);
  recorder.Record(QueuedRecordAt(5, 1000.0, /*queue_us=*/20.0));
  EXPECT_EQ(recorder.dumps(), 0);
  recorder.Record(QueuedRecordAt(7, 1100.0, /*queue_us=*/150.0));
  EXPECT_EQ(recorder.dumps(), 1);

  const std::string dumped = ReadFile(path);
  EXPECT_NE(dumped.find("\"records\":["), std::string::npos);
  EXPECT_NE(dumped.find("\"trace_id\":7"), std::string::npos)
      << "the breaching record is admitted before the dump: " << dumped;
  EXPECT_NE(dumped.find("\"trace_id\":5"), std::string::npos);
  EXPECT_EQ(MetricsRegistry::Get().GetCounter("ses.flight.dumps").Value(), 1);
  recorder.ResetForTest();
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, OneDumpPerWindowAndABreachAfterARollDumpsAgain) {
  ResetObsState();
  auto& recorder = obs::FlightRecorder::Get();
  recorder.Configure(/*top_k=*/8, /*window_us=*/1000.0);
  const std::string path = ::testing::TempDir() + "/flight_dump_window.json";
  std::remove(path.c_str());
  recorder.ArmAutoDump(path, /*queue_wait_budget_us=*/100.0);
  recorder.Record(QueuedRecordAt(1, 500.0, /*queue_us=*/200.0));  // opens
  EXPECT_EQ(recorder.dumps(), 1);
  // The breach goes on inside the same window: no second dump.
  recorder.Record(QueuedRecordAt(2, 900.0, /*queue_us=*/300.0));
  recorder.Record(QueuedRecordAt(3, 1400.0, /*queue_us=*/400.0));
  EXPECT_EQ(recorder.dumps(), 1);
  // 1100 us after the window opened it rolls, and the trigger re-arms.
  recorder.Record(QueuedRecordAt(4, 1600.0, /*queue_us=*/200.0));
  EXPECT_EQ(recorder.dumps(), 2);
  EXPECT_NE(ReadFile(path).find("\"trace_id\":4"), std::string::npos);
  recorder.Record(QueuedRecordAt(5, 1700.0, /*queue_us=*/200.0));
  EXPECT_EQ(recorder.dumps(), 2);

  // An empty path disarms.
  recorder.ArmAutoDump("", /*queue_wait_budget_us=*/100.0);
  recorder.Record(QueuedRecordAt(6, 5000.0, /*queue_us=*/200.0));
  EXPECT_EQ(recorder.dumps(), 2);
  recorder.ResetForTest();
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, ConcurrentBreachesDumpExactlyOnce) {
  ResetObsState();
  auto& recorder = obs::FlightRecorder::Get();
  recorder.Configure(/*top_k=*/16, /*window_us=*/1e12);
  const std::string path = ::testing::TempDir() + "/flight_dump_race.json";
  std::remove(path.c_str());
  recorder.ArmAutoDump(path, /*queue_wait_budget_us=*/100.0);
  recorder.Record(QueuedRecordAt(1, 1000.0, /*queue_us=*/1.0));  // opens
  // Four threads breach at once; the trigger must pick exactly one writer.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t id = 100 + static_cast<uint64_t>(t * kPerThread + i);
        recorder.Record(
            QueuedRecordAt(id, 2000.0 + i, /*queue_us=*/500.0 + t + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(recorder.dumps(), 1);
  EXPECT_EQ(MetricsRegistry::Get().GetCounter("ses.flight.dumps").Value(), 1);
  EXPECT_NE(ReadFile(path).find("\"records\":["), std::string::npos);
  recorder.ResetForTest();
  std::remove(path.c_str());
}

TEST(MetricsServerTest, DebugSlowestServesStageTimestamps) {
  ResetObsState();
  obs::RequestRecord rec =
      RecordAt(9001, "sched.predict", {100, 101, 110, 112, 150, 160});
  rec.has_stages = true;
  obs::PublishRequests(&rec, 1);

  std::string body, content_type;
  ASSERT_TRUE(
      obs::MetricsServer::RenderEndpoint("/debug/slowest", &body, &content_type));
  EXPECT_EQ(content_type, "application/json");
  EXPECT_NE(body.find("\"trace_id\":9001"), std::string::npos);
  EXPECT_NE(body.find("\"reason\":\"ok\""), std::string::npos);
  EXPECT_NE(
      body.find("\"stages_us\":{\"submit\":100,\"admit\":101,\"seal\":110,"
                "\"forward_start\":112,\"forward_end\":150,\"resolve\":160}"),
      std::string::npos)
      << body;

  // And over a real socket, the way an operator reaches it.
  obs::MetricsServer server;
  ASSERT_TRUE(server.Start(0));
  const std::string response =
      HttpGet(server.port(), "GET /debug/slowest HTTP/1.0\r\n\r\n");
  server.Stop();
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"trace_id\":9001"), std::string::npos);
}

TEST(MetricsServerTest, HealthzSnapshotsComponentsBeforeSerializing) {
  ResetObsState();
  // Providers churn while /healthz renders. The copy-then-serialize contract
  // means a provider unregistered mid-render was either fully included or
  // fully absent — never observed half-destroyed. Run under TSan.
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    int i = 0;
    while (!stop.load()) {
      const std::string name = "t.churn" + std::to_string(i % 7);
      obs::RegisterHealthProvider(
          name, [] { return std::string("{\"v\":1}"); });
      obs::UnregisterHealthProvider(name);
      ++i;
    }
  });
  for (int i = 0; i < 200; ++i) {
    std::string body, content_type;
    ASSERT_TRUE(
        obs::MetricsServer::RenderEndpoint("/healthz", &body, &content_type));
    EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  }
  stop.store(true);
  churner.join();
}

// ---------------------------------------------------------------------------
// Model health.

TEST(ModelHealthTest, DeadUnitsAreExactlyZeroColumns) {
  ResetObsState();
  auto& monitor = obs::ModelHealthMonitor::Get();
  monitor.SetEnabled(true);
  monitor.BeginEpoch("test");
  // Column 1 is dead (all exactly 0); column 0 has one live row; column 2 is
  // tiny-but-alive — magnitude must not matter, only exact zeros.
  const float acts[2][3] = {{0.0f, 0.0f, 1e-30f}, {2.0f, 0.0f, 0.0f}};
  monitor.ObserveActivations(&acts[0][0], 2, 3);
  const auto health = monitor.EndEpoch();
  EXPECT_DOUBLE_EQ(health.dead_fraction, 1.0 / 3.0);
  monitor.SetEnabled(false);
}

TEST(ModelHealthTest, AttentionEntropyIsOneForUniformZeroForOneHot) {
  ResetObsState();
  auto& monitor = obs::ModelHealthMonitor::Get();
  monitor.SetEnabled(true);

  monitor.BeginEpoch("test");
  const int64_t dst_uniform[4] = {0, 0, 0, 0};
  const float att_uniform[4] = {0.25f, 0.25f, 0.25f, 0.25f};
  monitor.ObserveAttention(att_uniform, dst_uniform, 4);
  EXPECT_NEAR(monitor.EndEpoch().attn_entropy, 1.0, 1e-9);

  monitor.BeginEpoch("test");
  const float att_onehot[4] = {1.0f, 0.0f, 0.0f, 0.0f};
  monitor.ObserveAttention(att_onehot, dst_uniform, 4);
  EXPECT_NEAR(monitor.EndEpoch().attn_entropy, 0.0, 1e-9);

  // Single-edge destinations carry no information and must be skipped.
  monitor.BeginEpoch("test");
  const int64_t dst_single[1] = {3};
  const float att_single[1] = {1.0f};
  monitor.ObserveAttention(att_single, dst_single, 1);
  EXPECT_DOUBLE_EQ(monitor.EndEpoch().attn_entropy, -1.0);
  monitor.SetEnabled(false);
}

TEST(ModelHealthTest, UpdateRatioAndGradNormComeFromTheSnapshots) {
  ResetObsState();
  auto& monitor = obs::ModelHealthMonitor::Get();
  monitor.SetEnabled(true);
  monitor.BeginEpoch("test");
  const float pre[2] = {3.0f, 4.0f};    // ||pre|| = 5
  const float grad[2] = {0.6f, 0.8f};   // ||grad|| = 1
  monitor.ObserveParamPreStep("w", pre, 2, grad, 2);
  const float post[2] = {3.0f, 3.0f};   // ||post - pre|| = 1
  monitor.ObserveParamPostStep("w", post, 2);
  const auto health = monitor.EndEpoch();
  ASSERT_EQ(health.params.size(), 1u);
  EXPECT_EQ(health.params[0].name, "w");
  EXPECT_NEAR(health.params[0].grad_norm, 1.0, 1e-6);
  EXPECT_NEAR(health.params[0].update_ratio, 1.0 / 5.0, 1e-6);
  monitor.SetEnabled(false);
}

TEST(ModuleTest, ParameterNamesFollowTheRegistrationTree) {
  util::Rng rng(1);
  nn::Mlp mlp({4, 8, 2}, &rng);
  const std::vector<std::string> names = mlp.ParameterNames();
  ASSERT_EQ(names.size(), mlp.Parameters().size());
  EXPECT_NE(std::find(names.begin(), names.end(), "fc0.weight"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "fc1.bias"), names.end());
}

// ---------------------------------------------------------------------------
// Registry thread-safety: scraping while new labeled series register. Run
// under TSan to turn latent races into failures.

TEST(MetricsRegistryTest, ScrapeWhileRegisteringIsSafe) {
  ResetObsState();
  auto& registry = MetricsRegistry::Get();
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load()) {
      std::ostringstream out;
      registry.WritePrometheus(out);
      std::ostringstream exposition;
      obs::WriteMetricsExposition(exposition);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        registry
            .GetCounter("ses.test.hammer",
                        {{"thread", std::to_string(t)},
                         {"series", std::to_string(i)}})
            .Add(1);
        registry.GetHistogram("ses.test.hammer_hist",
                              {{"thread", std::to_string(t)}}, {1.0, 10.0})
            .Observe(static_cast<double>(i));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  scraper.join();

  std::ostringstream out;
  registry.WritePrometheus(out);
  EXPECT_NE(out.str().find("ses_test_hammer"), std::string::npos);
}

// ---------------------------------------------------------------------------
// obs::Session: one flag rule and one artifact writer for every main.

/// A FlagParser over "--flag=value" arguments.
util::FlagParser Flags(std::vector<std::string> args) {
  args.insert(args.begin(), "main");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return util::FlagParser(static_cast<int>(argv.size()), argv.data());
}

/// Reads `text` as Prometheus exposition: every line is a `# TYPE` header
/// or a sample whose value parses. Returns the series, `name,k=v,...`.
std::set<std::string> ExpositionSeries(const std::string& text) {
  std::set<std::string> series;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    const PromSample sample = ParseSample(line);  // throws on a bad value
    std::string key = sample.name;
    for (const auto& [k, v] : sample.labels) key += "," + k + "=" + v;
    series.insert(key);
  }
  return series;
}

/// What both exit-path runs do: one span, one skipped NaN step.
void SessionWork() {
  { SES_TRACE_SPAN("t.session.work"); }
  MetricsRegistry::Get().GetCounter("ses.train.nan_skips").Add(1);
}

TEST(ObsSessionTest, MetricsOutWritesRegistryAndSpanSeriesWhateverTheSuffix) {
  ResetObsState();
  const std::string path = ::testing::TempDir() + "/session_ops.csv";
  MetricsRegistry::Get().GetCounter("ses.test.session_hits").Add(4);
  {
    obs::Session session(Flags({"--metrics-out=" + path}));
    EXPECT_TRUE(obs::TracingEnabled());
    SessionWork();
  }
  EXPECT_FALSE(obs::TracingEnabled()) << "Finish turns tracing back off";
  const std::set<std::string> series = ExpositionSeries(ReadFile(path));
  for (const char* name :
       {"ses_test_session_hits", "ses_train_nan_skips", "ses_ckpt_writes",
        "ses_span_count,label=t.session.work",
        "ses_span_total_ms,label=t.session.work",
        "ses_span_min_us,label=t.session.work",
        "ses_span_max_us,label=t.session.work"})
    EXPECT_EQ(series.count(name), 1u) << name;
  std::remove(path.c_str());
}

TEST(ObsSessionTest, CrashFlushWritesTheSeriesACleanExitWrites) {
  ResetObsState();
  const std::string clean_path = ::testing::TempDir() + "/session_clean.prom";
  const std::string crash_path = ::testing::TempDir() + "/session_crash.prom";
  {
    obs::Session session(Flags({"--metrics-out=" + clean_path}));
    SessionWork();
    session.Finish();
  }
  std::string crashed;
  {
    obs::Session session(Flags({"--metrics-out=" + crash_path}));  // re-arms
    SessionWork();
    // What FaultPlan::MaybeCrash, the signal handlers and atexit call.
    obs::FlushObservability();
    crashed = ReadFile(crash_path);  // before Finish could write it
  }
  const std::set<std::string> clean = ExpositionSeries(ReadFile(clean_path));
  const std::set<std::string> crash = ExpositionSeries(crashed);
  EXPECT_EQ(clean, crash);
  EXPECT_EQ(crash.count("ses_train_nan_skips"), 1u);
  EXPECT_EQ(crash.count("ses_span_count,label=t.session.work"), 1u);
  EXPECT_NE(crashed.find("\nses_train_nan_skips 2\n"), std::string::npos)
      << crashed;
  std::remove(clean_path.c_str());
  std::remove(crash_path.c_str());
}

TEST(ObsSessionTest, EachFlagTurnsOnWhatTheOneRuleSays) {
  ResetObsState();
  obs::EnableKernelProfiling(false);
  const std::string dir = ::testing::TempDir();
  struct Case {
    std::string flag;
    bool tracing, health;
  };
  const Case cases[] = {{"--trace-out=" + dir + "/s.json", true, false},
                        {"--metrics-out=" + dir + "/s.prom", true, false},
                        {"--access-log=" + dir + "/s.jsonl", true, false},
                        {"--telemetry-out=" + dir + "/e.jsonl", false, true},
                        {"--metrics-port=0", false, true},
                        {"--unrelated=1", false, false}};
  for (const Case& c : cases) {
    {
      obs::Session session(Flags({c.flag}));
      const bool any = c.flag != "--unrelated=1";
      EXPECT_EQ(obs::TracingEnabled(), c.tracing) << c.flag;
      EXPECT_EQ(obs::ModelHealthMonitor::Get().enabled(), c.health) << c.flag;
      EXPECT_EQ(obs::KernelProfilingEnabled(), any) << c.flag;
      EXPECT_EQ(session.metrics_port() != 0, c.flag == "--metrics-port=0");
    }
    EXPECT_FALSE(obs::TracingEnabled());
    EXPECT_FALSE(obs::ModelHealthMonitor::Get().enabled());
    EXPECT_FALSE(obs::KernelProfilingEnabled());
  }
  for (const char* name : {"s.json", "s.prom", "s.jsonl", "e.jsonl"})
    std::remove((dir + "/" + name).c_str());
}

TEST(ObsSessionTest, MetricsPortServesTheRobustnessCountersFromTheStart) {
  ResetObsState();
  obs::Session session(Flags({"--metrics-port=0"}));
  ASSERT_NE(session.metrics_port(), 0);
  const std::string metrics =
      HttpGet(session.metrics_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  for (const char* line : {"\nses_train_nan_skips 0\n", "\nses_ckpt_writes 0\n",
                           "\nses_train_rollbacks 0\n"})
    EXPECT_NE(metrics.find(line), std::string::npos) << line;
}

}  // namespace
