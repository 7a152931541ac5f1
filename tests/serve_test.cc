// Tests for the batched inference scheduler: micro-batch flush policies
// (deadline / max-batch / shutdown), bitwise parity of the scheduled path
// against direct InferenceSession calls under concurrent enqueue, trace-id
// propagation from enqueue to the worker's spans, and the ses.sched.*
// instrument surface — plus the overload-resilience contract: typed
// statuses for every rejected/expired/faulted request (no future ever
// hangs), deadline semantics at both expiry stages, queue-bound shedding
// (lowest-priority ops first, recovery once the queue drains), injected
// serving faults, and clean drain with submissions racing Stop().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/inference_session.h"
#include "core/ses_model.h"
#include "data/synthetic.h"
#include "graph/khop.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "obs/trace.h"
#include "robust/fault.h"
#include "serve/batch_scheduler.h"
#include "serve/retry.h"
#include "tensor/ops.h"

namespace c = ses::core;
namespace t = ses::tensor;
namespace obs = ses::obs;
namespace serve = ses::serve;
namespace robust = ses::robust;

namespace {

/// One tiny trained model shared by every scheduler test (training dominates
/// the binary's runtime; the scheduler itself is microseconds per test).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ses::data::SyntheticOptions opt;
    opt.scale = 0.25;
    ds_ = new ses::data::Dataset(ses::data::MakeSyntheticByName("BAShapes", opt));
    c::SesOptions sopt;
    sopt.backbone = "GCN";
    model_ = new c::SesModel(sopt);
    ses::models::TrainConfig cfg;
    cfg.epochs = 4;
    cfg.hidden = 16;
    cfg.seed = 1;
    model_->Fit(*ds_, cfg);
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete ds_;
    ds_ = nullptr;
  }

  int64_t num_nodes() const { return ds_->graph.num_nodes(); }

  static ses::data::Dataset* ds_;
  static c::SesModel* model_;
};

ses::data::Dataset* ServeTest::ds_ = nullptr;
c::SesModel* ServeTest::model_ = nullptr;

TEST_F(ServeTest, DeadlineFlushWithSingleRequest) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 64;     // never reached
  opt.flush_deadline_us = 500; // the deadline must fire instead
  serve::BatchScheduler scheduler(&session, opt);

  const int64_t node = 3;
  serve::PredictFuture fut = scheduler.SubmitPredict(node);
  ASSERT_TRUE(fut.valid());
  EXPECT_EQ(fut.Get(), session.PredictNode(node));

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.deadline_flushes, 1);
  EXPECT_EQ(stats.full_flushes, 0);
}

TEST_F(ServeTest, MaxBatchFlushDoesNotWaitForDeadline) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 4;
  opt.flush_deadline_us = 60'000'000;  // a deadline flush would time the test out
  serve::BatchScheduler scheduler(&session, opt);

  std::vector<serve::PredictFuture> futs;
  for (int64_t n = 0; n < 4; ++n) futs.push_back(scheduler.SubmitPredict(n));
  for (int64_t n = 0; n < 4; ++n)
    EXPECT_EQ(futs[static_cast<size_t>(n)].Get(), session.PredictNode(n));

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.full_flushes, 1);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.max_batch, 4);
}

TEST_F(ServeTest, ShutdownDrainsQueuedRequests) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 1024;
  opt.flush_deadline_us = 60'000'000;  // requests can only leave via Stop()
  serve::BatchScheduler scheduler(&session, opt);

  std::vector<serve::PredictFuture> futs;
  for (int64_t n = 0; n < 32; ++n) futs.push_back(scheduler.SubmitPredict(n));
  scheduler.Stop();

  for (int64_t n = 0; n < 32; ++n) {
    ASSERT_TRUE(futs[static_cast<size_t>(n)].Ready());
    EXPECT_EQ(futs[static_cast<size_t>(n)].Get(), session.PredictNode(n));
  }
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.shutdown_flushes, 1);
  EXPECT_EQ(stats.requests, 32);
}

TEST_F(ServeTest, SubmitAfterStopResolvesTypedShutdownRejection) {
  c::InferenceSession session(model_, ds_);
  serve::BatchScheduler scheduler(&session);
  scheduler.Stop();

  // Every post-stop Submit must hand back a VALID future that resolves
  // immediately with kShuttingDown — an invalid future (or a hang) would
  // force every caller to special-case shutdown.
  serve::PredictFuture p = scheduler.SubmitPredict(0);
  ASSERT_TRUE(p.valid());
  ASSERT_TRUE(p.Ready());
  EXPECT_EQ(p.Wait().code, serve::StatusCode::kShuttingDown);
  int64_t cls = -7;
  EXPECT_EQ(p.Get(&cls).code, serve::StatusCode::kShuttingDown);
  EXPECT_EQ(cls, -7) << "result slot must stay untouched on failure";

  serve::LogitsRowFuture row = scheduler.SubmitLogitsRow(1);
  ASSERT_TRUE(row.valid());
  EXPECT_EQ(row.Wait().code, serve::StatusCode::kShuttingDown);

  serve::ExplainFuture ex = scheduler.SubmitExplain(2, /*top_k=*/3);
  ASSERT_TRUE(ex.valid());
  EXPECT_EQ(ex.Wait().code, serve::StatusCode::kShuttingDown);

  const int64_t nodes[2] = {3, 4};
  std::vector<serve::PredictFuture> outs(2);
  EXPECT_EQ(scheduler.SubmitPredictStream(nodes, 2, outs.data()), 0);
  for (auto& fut : outs) {
    ASSERT_TRUE(fut.valid());
    EXPECT_EQ(fut.Wait().code, serve::StatusCode::kShuttingDown);
  }
  EXPECT_EQ(scheduler.stats().rejected, 5);
}

TEST_F(ServeTest, ConcurrentEnqueueMatchesDirectPathBitwise) {
  c::InferenceSession session(model_, ds_);
  const t::Tensor direct = session.Logits();

  serve::SchedulerOptions opt;
  opt.max_batch_size = 16;
  opt.flush_deadline_us = 200;
  serve::BatchScheduler scheduler(&session, opt);

  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 64;
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> clients;
  for (int tid = 0; tid < kThreads; ++tid) {
    clients.emplace_back([&, tid] {
      std::vector<serve::LogitsRowFuture> rows;
      std::vector<serve::PredictFuture> classes;
      std::vector<int64_t> nodes;
      for (int64_t q = 0; q < kPerThread; ++q) {
        const int64_t node = (tid * 131 + q * 17) % num_nodes();
        nodes.push_back(node);
        rows.push_back(scheduler.SubmitLogitsRow(node));
        classes.push_back(scheduler.SubmitPredict(node));
      }
      for (size_t i = 0; i < nodes.size(); ++i) {
        const std::vector<float> row = rows[i].Get();
        const float* want = direct.RowPtr(nodes[i]);
        bool ok = static_cast<int64_t>(row.size()) == direct.cols();
        for (int64_t col = 0; ok && col < direct.cols(); ++col)
          ok = row[static_cast<size_t>(col)] == want[col];  // bitwise
        if (!ok) mismatches.fetch_add(1);
        if (classes[i].Get() != session.PredictNode(nodes[i]))
          mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(scheduler.stats().requests, kThreads * kPerThread * 2);
}

TEST_F(ServeTest, ScheduledExplainMatchesDirectExplain) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.flush_deadline_us = 100;
  serve::BatchScheduler scheduler(&session, opt);

  for (int64_t node = 0; node < 8; ++node) {
    serve::ExplainFuture fut = scheduler.SubmitExplain(node, /*top_k=*/5);
    const auto direct = session.ExplainNode(node, /*top_k=*/5);
    const auto scheduled = fut.Get();
    EXPECT_EQ(scheduled.neighbors, direct.neighbors);
    EXPECT_EQ(scheduled.scores, direct.scores);
  }
}

TEST_F(ServeTest, QueueWaitAndBatchSizeHistogramsPopulate) {
  auto& registry = obs::MetricsRegistry::Get();
  obs::Histogram& wait_hist = registry.GetHistogram(
      "ses.sched.queue_wait_us", obs::Histogram::DefaultLatencyEdgesUs());
  obs::Histogram& size_hist = registry.GetHistogram(
      "ses.sched.batch_size", obs::Histogram::ExponentialEdges(1.0, 2.0, 12));
  const int64_t wait_before = wait_hist.Count();
  const int64_t size_before = size_hist.Count();

  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 8;
  // Only the full flush may seal: under sanitizers the 8 submits can take
  // longer than the default deadline, which would split the batch in two.
  opt.flush_deadline_us = 60'000'000;
  serve::BatchScheduler scheduler(&session, opt);
  std::vector<serve::PredictFuture> futs;
  for (int64_t n = 0; n < 8; ++n) futs.push_back(scheduler.SubmitPredict(n));
  for (auto& fut : futs) fut.Get();

  EXPECT_EQ(wait_hist.Count() - wait_before, 8);   // one wait per request
  EXPECT_EQ(size_hist.Count() - size_before, 1);   // one size per batch
}

TEST_F(ServeTest, TraceIdPropagatesFromEnqueueToWorkerSpan) {
  obs::EnableTracing(true);
  obs::ResetTracing();
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.flush_deadline_us = 100;
  serve::BatchScheduler scheduler(&session, opt);

  uint64_t client_id = 0;
  {
    obs::RequestScope rs("client.predict");
    client_id = rs.trace_id();
    serve::PredictFuture fut = scheduler.SubmitPredict(1);
    EXPECT_EQ(fut.trace_id(), client_id);  // enqueue captured the caller's id
    fut.Get();
  }
  scheduler.Stop();
  obs::EnableTracing(false);

  bool worker_span_joined = false;
  for (const auto& ev : obs::SnapshotEvents())
    if (std::string(ev.label) == "sched/complete" && ev.trace_id == client_id)
      worker_span_joined = true;
  EXPECT_TRUE(worker_span_joined);
  obs::ResetTracing();
}

TEST_F(ServeTest, SubmitWithoutRequestScopeAllocatesFreshTraceIds) {
  c::InferenceSession session(model_, ds_);
  serve::BatchScheduler scheduler(&session);
  serve::PredictFuture a = scheduler.SubmitPredict(0);
  serve::PredictFuture b = scheduler.SubmitPredict(1);
  EXPECT_NE(a.trace_id(), 0u);
  EXPECT_NE(b.trace_id(), 0u);
  EXPECT_NE(a.trace_id(), b.trace_id());
  a.Get();
  b.Get();
}

// --- request forensics (DESIGN.md §15) ----------------------------------------

/// Extracts the number following `key` in a JSON line (no full parser needed:
/// the access log writes flat numeric fields).
double JsonNumberAfter(const std::string& line, const std::string& key) {
  const size_t pos = line.find(key);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << line;
  if (pos == std::string::npos) return -1.0;
  return std::stod(line.substr(pos + key.size()));
}

TEST_F(ServeTest, AccessLogCarriesMonotonicStageOffsets) {
  c::InferenceSession session(model_, ds_);
  const std::string path = ::testing::TempDir() + "/sched_access_log.jsonl";
  ASSERT_TRUE(obs::AccessLog::Get().Open(path));
  {
    serve::SchedulerOptions opt;
    opt.max_batch_size = 4;
    opt.flush_deadline_us = 200;
    serve::BatchScheduler scheduler(&session, opt);
    std::vector<serve::PredictFuture> futs;
    for (int64_t n = 0; n < 8; ++n) futs.push_back(scheduler.SubmitPredict(n));
    for (auto& fut : futs) fut.Get();
    scheduler.Stop();
  }
  obs::AccessLog::Get().Close();

  std::ifstream in(path);
  int staged = 0;
  for (std::string line; std::getline(in, line);) {
    // Only scheduler-completed lines carry the stage block.
    if (line.find("\"op\":\"sched.predict\"") == std::string::npos) continue;
    EXPECT_NE(line.find("\"reason\":\"ok\""), std::string::npos) << line;
    ASSERT_NE(line.find("\"stages_us\":{"), std::string::npos) << line;
    const double admit = JsonNumberAfter(line, "\"admit\":");
    const double seal = JsonNumberAfter(line, "\"seal\":");
    const double fwd_start = JsonNumberAfter(line, "\"forward_start\":");
    const double fwd_end = JsonNumberAfter(line, "\"forward_end\":");
    const double resolve = JsonNumberAfter(line, "\"resolve\":");
    const double latency = JsonNumberAfter(line, "\"latency_us\":");
    // Offsets from submit, monotonically non-decreasing along the critical
    // path. `resolve` is stamped moments after the e2e latency measurement
    // (same batch, a few histogram flushes apart), so it agrees with
    // latency_us up to scheduling noise — a unit mix-up would not.
    EXPECT_GE(admit, 0.0);
    EXPECT_GE(seal, admit);
    EXPECT_GE(fwd_start, seal);
    EXPECT_GE(fwd_end, fwd_start);
    EXPECT_GE(resolve, fwd_end);
    EXPECT_NEAR(latency, resolve, 0.5 * latency + 50.0);
    ++staged;
  }
  EXPECT_EQ(staged, 8) << "one staged line per scheduled request";
}

TEST_F(ServeTest, StageHistogramsSeeEveryScheduledRequest) {
  auto& registry = obs::MetricsRegistry::Get();
  const char* names[5] = {"ses.sched.stage.admit_us", "ses.sched.stage.seal_us",
                          "ses.sched.stage.queue_us",
                          "ses.sched.stage.forward_us",
                          "ses.sched.stage.resolve_us"};
  obs::Histogram* hists[5];
  int64_t before[5];
  for (int i = 0; i < 5; ++i) {
    hists[i] = &registry.GetHistogram(names[i],
                                      obs::Histogram::DefaultLatencyEdgesUs());
    before[i] = hists[i]->Count();
  }

  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 4;
  opt.flush_deadline_us = 200;
  serve::BatchScheduler scheduler(&session, opt);
  std::vector<serve::PredictFuture> futs;
  for (int64_t n = 0; n < 8; ++n) futs.push_back(scheduler.SubmitPredict(n));
  for (auto& fut : futs) fut.Get();

  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(hists[i]->Count() - before[i], 8)
        << names[i] << " must see one observation per request";
}

TEST_F(ServeTest, EveryRequestOutcomeWritesOneAccessLogLine) {
  // One row per way a scheduled request can resolve. Each row runs under an
  // adopted caller trace id and must leave exactly one access-log line with
  // that id, whichever path resolved it: batch completion, shed or
  // shutdown.
  struct Row {
    const char* name;
    const char* op;
    const char* reason;
    bool staged;  ///< went through a batch: carries stages_us
    std::function<void(serve::SchedulerOptions*)> configure;
    std::function<void(serve::BatchScheduler*, c::InferenceSession*)> run;
  };
  const int64_t node[1] = {3};
  // A bound of one request, and a forming batch that only Stop() seals: one
  // queued predict under its own trace id fills the queue for the row.
  auto bound_one = [](serve::SchedulerOptions* opt) {
    opt->max_queued_requests = 1;
    opt->flush_deadline_us = 60'000'000;
  };
  auto fill_queue = [](serve::BatchScheduler* s) {
    obs::ScopedTraceId other(obs::AllocateTraceId());
    s->SubmitPredict(4);
  };
  const std::vector<Row> rows = {
      {"ok", "sched.predict", "ok", true, [](serve::SchedulerOptions*) {},
       [](serve::BatchScheduler* s, c::InferenceSession*) {
         s->SubmitPredict(3).Wait();
       }},
      {"expired_queue", "sched.predict", "expired_queue", true,
       [](serve::SchedulerOptions*) {},
       [](serve::BatchScheduler* s, c::InferenceSession*) {
         serve::SubmitOptions submit;
         submit.deadline_us = -1.0;
         s->SubmitPredict(3, submit).Wait();
       }},
      {"poisoned", "sched.logits_row", "poisoned", true,
       [](serve::SchedulerOptions* opt) {
         opt->fault_plan = robust::FaultPlan::Parse("poison_request:step=0");
       },
       [](serve::BatchScheduler* s, c::InferenceSession*) {
         s->SubmitLogitsRow(3).Wait();
       }},
      {"single shed", "sched.explain", "queue_depth_low_priority", false,
       bound_one,
       [&](serve::BatchScheduler* s, c::InferenceSession*) {
         fill_queue(s);
         s->SubmitExplain(3, 2).Wait();
       }},
      {"stream shed", "sched.predict", "queue_depth", false, bound_one,
       [&](serve::BatchScheduler* s, c::InferenceSession*) {
         fill_queue(s);
         serve::PredictFuture out;
         s->SubmitPredictStream(node, 1, &out);
         out.Wait();
       }},
      {"single shutdown", "sched.predict", "shutting_down", false,
       [](serve::SchedulerOptions*) {},
       [](serve::BatchScheduler* s, c::InferenceSession*) {
         s->Stop();
         s->SubmitPredict(3).Wait();
       }},
      {"stream shutdown tail", "sched.predict", "shutting_down", false,
       [](serve::SchedulerOptions*) {},
       [&](serve::BatchScheduler* s, c::InferenceSession*) {
         s->Stop();
         serve::PredictFuture out;
         s->SubmitPredictStream(node, 1, &out);
         out.Wait();
       }},
  };

  const std::string path = ::testing::TempDir() + "/outcome_access_log.jsonl";
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    c::InferenceSession session(model_, ds_);
    serve::SchedulerOptions opt;
    opt.flush_deadline_us = 100;
    row.configure(&opt);
    ASSERT_TRUE(obs::AccessLog::Get().Open(path));
    const uint64_t caller_id = obs::AllocateTraceId();
    {
      serve::BatchScheduler scheduler(&session, opt);
      obs::ScopedTraceId adopt(caller_id);
      row.run(&scheduler, &session);
    }
    obs::AccessLog::Get().Close();

    std::ifstream in(path);
    std::vector<std::string> lines;
    const std::string id_key = "{\"trace_id\":" + std::to_string(caller_id) + ",";
    for (std::string line; std::getline(in, line);)
      if (line.rfind(id_key, 0) == 0) lines.push_back(line);
    EXPECT_EQ(lines.size(), 1u) << "one line per request outcome";
    if (lines.size() != 1) continue;
    const std::string& line = lines[0];
    EXPECT_NE(line.find(std::string("\"op\":\"") + row.op + "\""),
              std::string::npos)
        << line;
    EXPECT_NE(line.find(std::string("\"reason\":\"") + row.reason + "\""),
              std::string::npos)
        << line;
    EXPECT_EQ(line.find("stages_us") != std::string::npos, row.staged)
        << line;
    if (std::string(row.reason) == "ok") {
      for (const char* key :
           {"admit", "seal", "forward_start", "forward_end", "resolve"})
        EXPECT_NE(line.find(std::string("\"") + key + "\":"),
                  std::string::npos)
            << key << " missing in " << line;
    }
  }
}

TEST_F(ServeTest, SchedulerFeedsFlightRecorderWithJoinableStageTimestamps) {
  obs::FlightRecorder::Get().ResetForTest();
  obs::EnableTracing(true);
  obs::ResetTracing();
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 4;
  opt.flush_deadline_us = 200;
  serve::BatchScheduler scheduler(&session, opt);
  std::vector<serve::PredictFuture> futs;
  std::vector<uint64_t> ids;
  for (int64_t n = 0; n < 8; ++n) {
    futs.push_back(scheduler.SubmitPredict(n));
    ids.push_back(futs.back().trace_id());
  }
  for (auto& fut : futs) fut.Get();
  scheduler.Stop();
  obs::EnableTracing(false);

  // Every scheduled request was fully attributed: six monotonically
  // non-decreasing stage stamps, reason "ok", and a trace id that
  // joins the futures handed to the client.
  int sched_records = 0;
  for (const auto& rec : obs::FlightRecorder::Get().Snapshot()) {
    if (std::strcmp(rec.op, "sched.predict") != 0) continue;  // inner scopes
    ++sched_records;
    EXPECT_NE(std::find(ids.begin(), ids.end(), rec.trace_id), ids.end());
    EXPECT_STREQ(rec.outcome(), "ok");
    EXPECT_FALSE(rec.error);
    EXPECT_TRUE(rec.has_stages);
    for (int s = 1; s < obs::RequestRecord::kNumStages; ++s)
      EXPECT_LE(rec.stamps[s - 1], rec.stamps[s]) << "stage " << s;
    EXPECT_GE(rec.e2e_us(), rec.OffsetUs(obs::RequestRecord::kForwardEnd));
  }
  EXPECT_EQ(sched_records, 8);

  // The per-stage spans landed in the Chrome trace under the same ids.
  const char* stage_labels[5] = {"sched/stage/admit", "sched/stage/seal",
                                 "sched/stage/queue", "sched/stage/forward",
                                 "sched/stage/resolve"};
  int joined_stage_spans = 0;
  for (const auto& ev : obs::SnapshotEvents()) {
    for (const char* label : stage_labels) {
      if (std::strcmp(ev.label, label) == 0 &&
          std::find(ids.begin(), ids.end(), ev.trace_id) != ids.end())
        ++joined_stage_spans;
    }
  }
  EXPECT_EQ(joined_stage_spans, 5 * 8)
      << "five stage spans per request, each tagged with its trace id";
  obs::ResetTracing();

  // The e2e histogram's exemplars name requests from this run: scraping
  // /metrics after the fact still identifies a concrete slow request.
  obs::Histogram& e2e = obs::MetricsRegistry::Get().GetHistogram(
      "ses.sched.e2e_us", obs::Histogram::DefaultLatencyEdgesUs());
  obs::Histogram::Exemplar ex;
  int joined_exemplars = 0;
  for (size_t b = 0; b <= e2e.edges().size(); ++b) {
    if (!e2e.ReadExemplar(b, &ex)) continue;
    if (std::find(ids.begin(), ids.end(), ex.trace_id) != ids.end())
      ++joined_exemplars;
  }
  EXPECT_GE(joined_exemplars, 1)
      << "at least one bucket's exemplar joins this run's trace ids";
  obs::FlightRecorder::Get().ResetForTest();
}

// --- deadlines ---------------------------------------------------------------

TEST_F(ServeTest, NegativeDeadlineResolvesExpiredWithoutExecuting) {
  c::InferenceSession session(model_, ds_);
  serve::BatchScheduler scheduler(&session);
  serve::SubmitOptions submit;
  submit.deadline_us = -1.0;  // already expired at submission
  serve::PredictFuture fut = scheduler.SubmitPredict(0, submit);
  ASSERT_TRUE(fut.valid());
  EXPECT_EQ(fut.Wait().code, serve::StatusCode::kDeadlineExceeded);
  int64_t cls = -7;
  EXPECT_EQ(fut.Get(&cls).code, serve::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cls, -7);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.expired, 1) << "must expire in queue, pre-execution";
  EXPECT_EQ(stats.expired_inflight, 0);
  EXPECT_EQ(stats.internal_errors, 0);
}

TEST_F(ServeTest, DefaultDeadlineAppliesAndExplicitDeadlineOverrides) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 2;
  opt.flush_deadline_us = 60'000'000;  // only the full flush may seal
  opt.default_deadline_us = 50'000;    // 50ms for requests without one
  opt.fault_plan = robust::FaultPlan::Parse("worker_stall:step=0,ms=250");
  serve::BatchScheduler scheduler(&session, opt);

  serve::PredictFuture defaulted = scheduler.SubmitPredict(2);
  serve::SubmitOptions generous;
  generous.deadline_us = 60'000'000.0;  // overrides the 50ms default
  serve::PredictFuture overridden = scheduler.SubmitPredict(3, generous);

  // The stalled worker dequeues the batch well past the 50ms default: the
  // defaulted request is doomed work and must be dropped before the forward,
  // while its batchmate (same batch, same stall) survives on its own longer
  // deadline.
  EXPECT_EQ(defaulted.Wait().code, serve::StatusCode::kDeadlineExceeded);
  int64_t cls = -1;
  ASSERT_EQ(overridden.Get(&cls).code, serve::StatusCode::kOk);
  EXPECT_EQ(cls, session.PredictNode(3));
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.expired, 1);
  EXPECT_EQ(stats.expired_inflight, 0);
}

TEST_F(ServeTest, QueueExpiredRequestIsDroppedBeforeForward) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 2;
  opt.flush_deadline_us = 60'000'000;
  opt.fault_plan = robust::FaultPlan::Parse("worker_stall:step=0,ms=250");
  serve::BatchScheduler scheduler(&session, opt);

  serve::SubmitOptions tight;
  tight.deadline_us = 50'000.0;
  serve::PredictFuture doomed = scheduler.SubmitPredict(1, tight);
  serve::PredictFuture safe = scheduler.SubmitPredict(4);  // no deadline

  EXPECT_EQ(doomed.Wait().code, serve::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(safe.Get(), session.PredictNode(4));
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.expired, 1);
  EXPECT_EQ(stats.expired_inflight, 0);
}

TEST_F(ServeTest, MidFlightExpiryResolvesDeadlineExceeded) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 1;  // seals and dispatches immediately
  opt.fault_plan = robust::FaultPlan::Parse("slow_forward:step=0,ms=250");
  serve::BatchScheduler scheduler(&session, opt);

  // The request is live at dequeue (deadline 100ms ahead) but the forward
  // takes 250ms: the contract is "within the deadline", so the completion
  // check must still expire it — as inflight, not queue, expiry.
  serve::SubmitOptions submit;
  submit.deadline_us = 100'000.0;
  serve::PredictFuture fut = scheduler.SubmitPredict(0, submit);
  EXPECT_EQ(fut.Wait().code, serve::StatusCode::kDeadlineExceeded);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.expired_inflight, 1);
  EXPECT_EQ(stats.expired, 0);
}

// --- injected serving faults -------------------------------------------------

TEST_F(ServeTest, PoisonedRequestFailsAloneWhileBatchmatesSucceed) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 4;
  opt.flush_deadline_us = 60'000'000;
  opt.fault_plan = robust::FaultPlan::Parse("poison_request:step=2");
  serve::BatchScheduler scheduler(&session, opt);

  std::vector<serve::PredictFuture> futs;
  for (int64_t n = 0; n < 4; ++n) futs.push_back(scheduler.SubmitPredict(n));

  // Accept-order request 2 is poisoned: it alone resolves kInternal; its
  // batchmates still go through the (partitioned) batched forward and match
  // the direct path bitwise.
  int64_t cls = -7;
  EXPECT_EQ(futs[2].Get(&cls).code, serve::StatusCode::kInternal);
  EXPECT_EQ(cls, -7);
  for (int64_t n : {0, 1, 3})
    EXPECT_EQ(futs[static_cast<size_t>(n)].Get(), session.PredictNode(n));
  EXPECT_EQ(scheduler.stats().internal_errors, 1);
}

TEST_F(ServeTest, ThrowingBatchResolvesInternalAndWorkerSurvives) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 2;
  opt.flush_deadline_us = 60'000'000;
  opt.fault_plan = robust::FaultPlan::Parse("serve_throw:step=0");
  serve::BatchScheduler scheduler(&session, opt);

  serve::PredictFuture a = scheduler.SubmitPredict(0);
  serve::PredictFuture b = scheduler.SubmitPredict(1);
  EXPECT_EQ(a.Wait().code, serve::StatusCode::kInternal);
  EXPECT_EQ(b.Wait().code, serve::StatusCode::kInternal);

  // The worker must survive the throw: the next batch executes normally.
  serve::PredictFuture c1 = scheduler.SubmitPredict(2);
  serve::PredictFuture d = scheduler.SubmitPredict(3);
  EXPECT_EQ(c1.Get(), session.PredictNode(2));
  EXPECT_EQ(d.Get(), session.PredictNode(3));
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.internal_errors, 2);
  EXPECT_EQ(stats.batches, 2);
}

TEST_F(ServeTest, StalledWorkerStillDrainsCleanlyOnStop) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 1024;
  opt.flush_deadline_us = 60'000'000;  // requests can only leave via Stop()
  opt.fault_plan = robust::FaultPlan::Parse("worker_stall:step=0,ms=100");
  serve::BatchScheduler scheduler(&session, opt);

  std::vector<serve::PredictFuture> futs;
  for (int64_t n = 0; n < 8; ++n) futs.push_back(scheduler.SubmitPredict(n));
  scheduler.Stop();  // must wait out the stall, not abandon the batch

  for (int64_t n = 0; n < 8; ++n) {
    ASSERT_TRUE(futs[static_cast<size_t>(n)].Ready());
    EXPECT_EQ(futs[static_cast<size_t>(n)].Get(), session.PredictNode(n));
  }
  EXPECT_EQ(scheduler.stats().shutdown_flushes, 1);
}

// --- admission control -------------------------------------------------------

/// Spins until the worker has popped every queued request (the live
/// queue-depth gauge reads 0), so a test can line up admission decisions
/// against a known queue state while the worker is held in a stall fault.
void WaitForEmptyQueue() {
  auto& gauge = obs::MetricsRegistry::Get().GetGauge("ses.sched.queue_depth");
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (gauge.Value() != 0.0 && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(gauge.Value(), 0.0) << "worker never drained the queue";
}

TEST_F(ServeTest, AdmissionShedResolvesTypedOverloadedWithRetryHint) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 1;  // every submit seals its own batch
  opt.flush_deadline_us = 750;  // the RetryAfter hint: one batch period
  opt.max_queued_requests = 2;
  opt.fault_plan = robust::FaultPlan::Parse("worker_stall:step=0,ms=400");
  serve::BatchScheduler scheduler(&session, opt);

  // Prime one request and wait until the worker holds it in the stall: the
  // queue is now empty and the worker is busy for 400ms.
  serve::PredictFuture primed = scheduler.SubmitPredict(0);
  WaitForEmptyQueue();

  serve::PredictFuture first = scheduler.SubmitPredict(1);    // queued: 1
  serve::PredictFuture second = scheduler.SubmitPredict(2);   // queued: 2
  serve::PredictFuture shed = scheduler.SubmitPredict(3);     // at the bound
  ASSERT_TRUE(shed.valid());
  ASSERT_TRUE(shed.Ready()) << "shed must be an immediate rejection";
  const serve::Status status = shed.Wait();
  EXPECT_EQ(status.code, serve::StatusCode::kOverloaded);
  EXPECT_EQ(status.retry_after_us, 750);

  // Admitted work is unaffected once the stall clears.
  EXPECT_EQ(primed.Get(), session.PredictNode(0));
  EXPECT_EQ(first.Get(), session.PredictNode(1));
  EXPECT_EQ(second.Get(), session.PredictNode(2));
  EXPECT_EQ(scheduler.stats().shed, 1);
}

TEST_F(ServeTest, StreamShedSlotsGetTypedRejectionFutures) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 1;
  opt.flush_deadline_us = 333;
  opt.max_queued_requests = 1;
  opt.fault_plan = robust::FaultPlan::Parse("worker_stall:step=0,ms=400");
  serve::BatchScheduler scheduler(&session, opt);

  serve::PredictFuture primed = scheduler.SubmitPredict(0);
  WaitForEmptyQueue();

  // One slot fits under the bound; the rest of the stream must come back as
  // immediate typed rejections in their slots, not silently dropped.
  const int64_t nodes[6] = {1, 2, 3, 4, 5, 6};
  std::vector<serve::PredictFuture> outs(6);
  EXPECT_EQ(scheduler.SubmitPredictStream(nodes, 6, outs.data()), 1);
  EXPECT_EQ(outs[0].Get(), session.PredictNode(1));
  for (size_t i = 1; i < 6; ++i) {
    ASSERT_TRUE(outs[i].valid());
    const serve::Status status = outs[i].Wait();
    EXPECT_EQ(status.code, serve::StatusCode::kOverloaded);
    EXPECT_EQ(status.retry_after_us, 333);
  }
  EXPECT_EQ(primed.Get(), session.PredictNode(0));
  EXPECT_EQ(scheduler.stats().shed, 5);
}

/// Shed tally of one reason, across every scheduler in the process.
int64_t ShedCount(const char* reason) {
  return obs::MetricsRegistry::Get()
      .GetCounter("ses.sched.shed", {{"reason", reason}})
      .Value();
}

TEST_F(ServeTest, ExplainShedsBeforePredictAsTheQueueFills) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 1;
  opt.max_queued_requests = 4;
  opt.fault_plan = robust::FaultPlan::Parse("worker_stall:step=0,ms=400");
  serve::BatchScheduler scheduler(&session, opt);
  const int64_t low_before = ShedCount("queue_depth_low_priority");
  const int64_t depth_before = ShedCount("queue_depth");

  serve::PredictFuture primed = scheduler.SubmitPredict(0);
  WaitForEmptyQueue();
  std::vector<serve::PredictFuture> admitted;
  admitted.push_back(scheduler.SubmitPredict(1));  // queued: 1
  admitted.push_back(scheduler.SubmitPredict(2));  // queued: 2 = half

  // At half the bound the lower-priority ops shed; a predict still fits.
  const serve::Status explain = scheduler.SubmitExplain(3, 2).Wait();
  EXPECT_EQ(explain.code, serve::StatusCode::kOverloaded);
  const serve::Status slice = scheduler.SubmitLogitsRow(3).Wait();
  EXPECT_EQ(slice.code, serve::StatusCode::kOverloaded);
  EXPECT_EQ(ShedCount("queue_depth_low_priority") - low_before, 2);
  admitted.push_back(scheduler.SubmitPredict(3));  // queued: 3
  admitted.push_back(scheduler.SubmitPredict(4));  // queued: 4 = bound
  EXPECT_EQ(ShedCount("queue_depth") - depth_before, 0);

  // At the bound the predict sheds too.
  serve::PredictFuture shed = scheduler.SubmitPredict(5);
  ASSERT_TRUE(shed.Ready());
  EXPECT_EQ(shed.Wait().code, serve::StatusCode::kOverloaded);
  EXPECT_EQ(ShedCount("queue_depth") - depth_before, 1);

  EXPECT_EQ(primed.Get(), session.PredictNode(0));
  for (int64_t n = 1; n <= 4; ++n)
    EXPECT_EQ(admitted[static_cast<size_t>(n - 1)].Get(),
              session.PredictNode(n));
  EXPECT_EQ(scheduler.stats().shed, 3);
}

TEST_F(ServeTest, AdmissionResumesOnceTheQueueDrains) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 1;
  opt.max_queued_requests = 2;
  opt.fault_plan = robust::FaultPlan::Parse("worker_stall:step=0,ms=200");
  serve::BatchScheduler scheduler(&session, opt);

  serve::PredictFuture primed = scheduler.SubmitPredict(0);
  WaitForEmptyQueue();
  serve::PredictFuture first = scheduler.SubmitPredict(1);
  serve::PredictFuture second = scheduler.SubmitPredict(2);
  EXPECT_EQ(scheduler.SubmitPredict(3).Wait().code,
            serve::StatusCode::kOverloaded);

  // The stall clears and the worker drains the queue; the bound reads the
  // live depth, so nothing latches and the next submits are served.
  EXPECT_EQ(primed.Get(), session.PredictNode(0));
  EXPECT_EQ(first.Get(), session.PredictNode(1));
  EXPECT_EQ(second.Get(), session.PredictNode(2));
  WaitForEmptyQueue();
  int64_t cls = -1;
  ASSERT_EQ(scheduler.SubmitPredict(3).Get(&cls).code, serve::StatusCode::kOk);
  EXPECT_EQ(cls, session.PredictNode(3));
  serve::ExplainFuture explain = scheduler.SubmitExplain(3, /*top_k=*/2);
  c::InferenceSession::Explanation ex;
  ASSERT_EQ(explain.Get(&ex).code, serve::StatusCode::kOk);
  EXPECT_EQ(ex.neighbors, session.ExplainNode(3, /*top_k=*/2).neighbors);
  EXPECT_EQ(scheduler.stats().shed, 1);
}

// --- shutdown races ----------------------------------------------------------

TEST_F(ServeTest, SubmitsRacingStopAllResolveTyped) {
  c::InferenceSession session(model_, ds_);
  serve::SchedulerOptions opt;
  opt.max_batch_size = 8;
  serve::BatchScheduler scheduler(&session, opt);

  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 64;
  std::atomic<int64_t> ok{0}, shutdown{0}, other{0};
  std::vector<std::thread> clients;
  for (int tid = 0; tid < kThreads; ++tid) {
    clients.emplace_back([&, tid] {
      for (int64_t q = 0; q < kPerThread; ++q) {
        serve::PredictFuture fut =
            scheduler.SubmitPredict((tid * 131 + q * 17) % num_nodes());
        if (!fut.valid()) {
          other.fetch_add(1);
          continue;
        }
        switch (fut.Wait().code) {
          case serve::StatusCode::kOk: ok.fetch_add(1); break;
          case serve::StatusCode::kShuttingDown: shutdown.fetch_add(1); break;
          default: other.fetch_add(1); break;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  scheduler.Stop();  // races the submitting threads
  for (auto& th : clients) th.join();

  // Every single submission resolved, with exactly one of the two legal
  // codes, and the scheduler's books agree with the clients'.
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok.load() + shutdown.load(), kThreads * kPerThread);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.requests, ok.load());
  EXPECT_EQ(stats.rejected, shutdown.load());
}

// --- retry policy units ------------------------------------------------------

TEST(RetryTest, BackoffGrowsCapsFloorsOnHintAndJitters) {
  serve::RetryPolicy policy;
  policy.initial_backoff_us = 100;
  policy.multiplier = 2.0;
  policy.max_backoff_us = 1000;
  policy.jitter = 0.5;

  // u = 0.5 makes the spread exactly 1.0: pure exponential readings.
  EXPECT_EQ(serve::RetryDelayUs(policy, 0, 0, 0.5), 100);
  EXPECT_EQ(serve::RetryDelayUs(policy, 2, 0, 0.5), 400);
  EXPECT_EQ(serve::RetryDelayUs(policy, 5, 0, 0.5), 1000);  // capped

  // The server hint is a floor backoff can never undercut.
  EXPECT_EQ(serve::RetryDelayUs(policy, 0, 5000, 0.5), 5000);

  // Full jitter spread: +-50% around the base.
  EXPECT_EQ(serve::RetryDelayUs(policy, 0, 0, 0.0), 50);
  EXPECT_EQ(serve::RetryDelayUs(policy, 0, 0, 0.999), 149);
}

// --- batched session APIs the scheduler dispatches to -----------------------

TEST_F(ServeTest, PredictManyMatchesPredictNode) {
  c::InferenceSession session(model_, ds_);
  std::vector<int64_t> nodes = {0, 5, 3, 5, 1};  // duplicates allowed
  const std::vector<int64_t> batched = session.PredictMany(nodes);
  ASSERT_EQ(batched.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i)
    EXPECT_EQ(batched[i], session.PredictNode(nodes[i]));
}

TEST_F(ServeTest, GatherLogitsSlicesMemoizedLogitsBitwise) {
  c::InferenceSession session(model_, ds_);
  const t::Tensor all = session.Logits();
  std::vector<int64_t> nodes = {2, 0, num_nodes() - 1};
  const t::Tensor rows = session.GatherLogits(nodes);
  ASSERT_EQ(rows.rows(), static_cast<int64_t>(nodes.size()));
  ASSERT_EQ(rows.cols(), all.cols());
  for (size_t i = 0; i < nodes.size(); ++i)
    for (int64_t col = 0; col < all.cols(); ++col)
      EXPECT_EQ(rows.At(static_cast<int64_t>(i), col), all.At(nodes[i], col));
}

TEST_F(ServeTest, ExplainManyMatchesExplainNode) {
  c::InferenceSession session(model_, ds_);
  std::vector<int64_t> nodes = {0, 7, 4};
  const auto batched = session.ExplainMany(nodes, /*top_k=*/3);
  ASSERT_EQ(batched.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const auto direct = session.ExplainNode(nodes[i], /*top_k=*/3);
    EXPECT_EQ(batched[i].neighbors, direct.neighbors);
    EXPECT_EQ(batched[i].scores, direct.scores);
  }
}

TEST_F(ServeTest, ForwardLogitsIsSafeAgainstConcurrentArtifactRebuilds) {
  // ForwardLogits runs its forward outside the session lock while another
  // query may rebuild the artifacts after an invalidation. The rebuild must
  // never swap inputs under a running forward: every result equals the
  // reference bitwise. Run under TSan.
  c::InferenceSession session(model_, ds_);
  const t::Tensor reference = session.Logits();
  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    while (!stop.load()) {
      session.InvalidateGraph();
      session.PredictNode(0);
    }
  });
  std::atomic<int> mismatches{0};
  std::vector<std::thread> forwards;
  for (int tid = 0; tid < 2; ++tid) {
    forwards.emplace_back([&] {
      for (int i = 0; i < 4; ++i) {
        const t::Tensor logits = session.ForwardLogits();
        if (logits.rows() != reference.rows() ||
            logits.cols() != reference.cols() ||
            std::memcmp(logits.data(), reference.data(),
                        sizeof(float) * static_cast<size_t>(logits.size())) !=
                0)
          mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : forwards) th.join();
  stop.store(true);
  invalidator.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ServeTest, AccessLogVersionsOneClientSeesNeverDecrease) {
  // Scheduled answers carry the version of the snapshot that answered them.
  // Published versions only grow, so a client's sequential reads across
  // several bumps see non-decreasing versions, and a read after the last
  // build sees the last version.
  c::InferenceSession session(model_, ds_);
  session.Logits();
  const std::string path = ::testing::TempDir() + "/versions_access_log.jsonl";
  ASSERT_TRUE(obs::AccessLog::Get().Open(path));
  constexpr int kBumps = 4;
  {
    serve::SchedulerOptions opt;
    opt.flush_deadline_us = 100;
    serve::BatchScheduler scheduler(&session, opt);
    for (int bump = 0; bump < kBumps; ++bump) {
      session.InvalidateGraph();
      for (int64_t n = 0; n < 16; ++n)
        scheduler.SubmitPredict(n % num_nodes()).Get();
    }
    session.Logits();  // waits for the last bump's build
    scheduler.SubmitPredict(0).Get();
    scheduler.Stop();
  }
  obs::AccessLog::Get().Close();

  std::ifstream in(path);
  std::vector<double> versions;
  for (std::string line; std::getline(in, line);)
    if (line.find("\"op\":\"sched.predict\"") != std::string::npos)
      versions.push_back(JsonNumberAfter(line, "\"version\":"));
  ASSERT_EQ(versions.size(), static_cast<size_t>(kBumps * 16 + 1));
  EXPECT_GE(versions.front(), 0.0);
  for (size_t i = 1; i < versions.size(); ++i)
    EXPECT_GE(versions[i], versions[i - 1]) << "read " << i;
  EXPECT_EQ(versions.back(), static_cast<double>(kBumps));
}

TEST_F(ServeTest, SnapshotFailedBuildKeepsThePreviousVersionPublished) {
  ses::data::Dataset ds = *ds_;
  c::InferenceSession session(model_, &ds);
  const t::Tensor reference = session.Logits();
  const auto features = ds.features;
  ds.features = nullptr;  // the next build has no features and throws
  session.InvalidateGraph();
  EXPECT_THROW(session.Logits(), std::logic_error);
  EXPECT_THROW(session.PredictNode(3), std::logic_error)
      << "a failed version stays failed until the next bump";
  const c::InferenceSession::SnapshotPtr current = session.Current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->version, 0);
  {
    // Scheduled reads keep answering from the published version.
    serve::BatchScheduler scheduler(&session);
    int64_t cls = -1;
    ASSERT_TRUE(scheduler.SubmitPredict(3).Get(&cls).ok());
    EXPECT_EQ(cls, current->PredictMany({3})[0]);
  }
  ds.features = features;
  session.InvalidateGraph();
  EXPECT_EQ(session.Logits().MaxAbsDiff(reference), 0.0f);
  EXPECT_EQ(session.Current()->version, 2);
}

TEST_F(ServeTest, SnapshotReadsDuringFeatureSwapsMatchOneFeatureSet) {
  // A writer swaps the dataset's features and bumps the version while
  // scheduled and direct reads run. Builds read only the handle captured at
  // the bump (run under TSan), so every answer is the reference answer of
  // one of the two feature sets, and direct reads see their own writes.
  ses::data::Dataset ds = *ds_;
  const auto features_a = ds.features;
  auto negated = std::make_shared<t::SparseMatrix>(*features_a);
  for (float& v : negated->values) v *= -1.5f;
  const std::shared_ptr<const t::SparseMatrix> features_b = std::move(negated);
  t::Tensor reference_a, reference_b;
  {
    c::InferenceSession a(model_, &ds);
    reference_a = a.Logits();
    ses::data::Dataset ds_b = ds;
    ds_b.features = features_b;
    c::InferenceSession b(model_, &ds_b);
    reference_b = b.Logits();
  }
  auto same_row = [](const t::Tensor& ref, int64_t node, const float* row) {
    return std::memcmp(ref.RowPtr(node), row,
                       sizeof(float) * static_cast<size_t>(ref.cols())) == 0;
  };

  c::InferenceSession session(model_, &ds);
  session.Logits();
  serve::SchedulerOptions opt;
  opt.flush_deadline_us = 100;
  serve::BatchScheduler scheduler(&session, opt);
  std::atomic<int> mismatches{0};
  std::thread writer([&] {
    for (int i = 0; i < 40; ++i) {
      const bool use_b = i % 2 == 0;
      ds.features = use_b ? features_b : features_a;
      session.InvalidateGraph();
      // Read-your-writes: this direct read waits for the version just made.
      const t::Tensor logits = session.Logits();
      if (logits.MaxAbsDiff(use_b ? reference_b : reference_a) != 0.0f)
        mismatches.fetch_add(1);
    }
  });
  for (int i = 0; i < 400; ++i) {
    const int64_t node = (i * 7) % num_nodes();
    const std::vector<float> row = scheduler.SubmitLogitsRow(node).Get();
    if (!same_row(reference_a, node, row.data()) &&
        !same_row(reference_b, node, row.data()))
      mismatches.fetch_add(1);
  }
  writer.join();
  scheduler.Stop();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- kernel-level helpers ----------------------------------------------------

TEST(ArgmaxGatherRowsTest, MatchesPerRowArgmaxWithFirstMaxWinning) {
  t::Tensor a = {{1.0f, 3.0f, 3.0f}, {5.0f, 2.0f, 0.0f}, {0.0f, 0.0f, 7.0f}};
  const int64_t idx[4] = {2, 0, 1, 0};
  const std::vector<int64_t> out = t::ArgmaxGatherRows(a, idx, 4);
  EXPECT_EQ(out, (std::vector<int64_t>{2, 1, 0, 1}));  // ties: first max wins
}

TEST(GatherRowsSpanTest, MatchesVectorOverload) {
  t::Tensor a = {{1.0f, 2.0f}, {3.0f, 4.0f}, {5.0f, 6.0f}};
  const std::vector<int64_t> idx = {2, 2, 0};
  const t::Tensor from_vec = t::GatherRows(a, idx);
  const t::Tensor from_span =
      t::GatherRows(a, idx.data(), static_cast<int64_t>(idx.size()));
  EXPECT_EQ(from_vec.MaxAbsDiff(from_span), 0.0f);
  EXPECT_EQ(from_span.At(0, 0), 5.0f);
  EXPECT_EQ(from_span.At(2, 1), 2.0f);
}

TEST(TopKByScoreTest, SelectsDescendingAndReusesScratch) {
  const float scores[] = {0.1f, 0.9f, 0.5f, 0.7f};
  std::vector<int64_t> scratch, out;
  EXPECT_EQ(ses::graph::TopKByScore(scores, 0, 4, 2, &scratch, &out), 2);
  EXPECT_EQ(out, (std::vector<int64_t>{1, 3}));
  // Same scratch, shorter range with an offset, k larger than n.
  EXPECT_EQ(ses::graph::TopKByScore(scores, 2, 2, 5, &scratch, &out), 2);
  EXPECT_EQ(out, (std::vector<int64_t>{1, 0}));  // 0.7 at local 1, 0.5 at 0
  EXPECT_EQ(ses::graph::TopKByScore(scores, 0, 0, 3, &scratch, &out), 0);
  EXPECT_TRUE(out.empty());
}

}  // namespace
