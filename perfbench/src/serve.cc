#include "serve.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <thread>

#include "core/inference_session.h"
#include "core/sharded_session.h"
#include "layers.h"
#include "serve/batch_scheduler.h"
#include "serve/shard_router.h"
#include "util/rng.h"

namespace perfbench {

namespace serve = ses::serve;
namespace {

using Explanation = core::InferenceSession::Explanation;

/// Answers of a whole-graph session built in set-up; every served answer
/// must equal these exactly.
struct Reference {
  std::vector<int64_t> predicted;
  std::vector<Explanation> explained;
};

Reference BuildReference(const core::SesModel& model,
                         const data::Dataset& ds) {
  core::InferenceSession session(&model, &ds);
  std::vector<int64_t> all(static_cast<size_t>(ds.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  return {session.PredictMany(all), session.ExplainMany(all, kTopK)};
}

enum class Kind : uint8_t { kPredict, kExplain, kWrite };

struct Event {
  int64_t due_ns = 0;  ///< offset from the start of the load
  Kind kind = Kind::kPredict;
  int64_t node = 0;    ///< write events: the write's index
};

/// Open-loop schedule from the seed: reads evenly spaced at kReadRate, each
/// an explain with probability kExplainShare, on Zipf-popular nodes (ranks
/// mapped to nodes by a seeded permutation); writes every `write_every`
/// seconds, half a period in (none when 0).
std::vector<Event> MakeSchedule(int64_t num_nodes, uint64_t seed,
                                double seconds, double write_every) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5eed);
  std::vector<int64_t> by_rank(static_cast<size_t>(num_nodes));
  std::iota(by_rank.begin(), by_rank.end(), 0);
  rng.Shuffle(&by_rank);
  std::vector<double> cdf(by_rank.size());
  double total = 0.0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  std::vector<Event> events;
  const auto reads = static_cast<int64_t>(seconds * kReadRate);
  for (int64_t i = 0; i < reads; ++i) {
    const double u = rng.Uniform() * total;
    const size_t rank = std::min(
        static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin()),
        cdf.size() - 1);
    const Kind kind =
        rng.Bernoulli(kExplainShare) ? Kind::kExplain : Kind::kPredict;
    events.push_back({static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                           kReadRate),
                      kind, by_rank[rank]});
  }
  if (write_every > 0.0) {
    for (int64_t w = 0;; ++w) {
      const auto due = static_cast<int64_t>((static_cast<double>(w) + 0.5) *
                                            write_every * 1e9);
      if (due >= static_cast<int64_t>(seconds * 1e9)) break;
      events.push_back({due, Kind::kWrite, w});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.due_ns < b.due_ns;
                   });
  return events;
}

/// What one load phase observed.
struct Outcome {
  int64_t reads = 0;
  int64_t ok = 0;       ///< answered ok, correctly, within the limit
  int64_t wrong = 0;    ///< answered ok but differing from the reference
  int64_t late = 0;     ///< answered ok and correctly, after the limit
  int64_t refused = 0;  ///< typed non-ok status (shed, expired, ...)
  int64_t hung = 0;     ///< no answer within limit + kHangGraceMs of due
  int64_t writes = 0;
  std::vector<double> latency_ms;   ///< due -> answer seen, every answer
  std::vector<int64_t> due_ns;      ///< due time of each latency_ms entry
  std::vector<double> gen_late_ms;  ///< due -> submitted, every read
};

constexpr double kHangGraceMs = 5000.0;

/// One read in flight: its future, and when it was due.
struct InFlight {
  Event event;
  uint64_t request_id = 0;
  int64_t due_ns = 0;  ///< recorder timebase
  serve::PredictFuture predict;
  serve::ExplainFuture explain;

  bool Ready() const {
    return event.kind == Kind::kExplain ? explain.Ready() : predict.Ready();
  }
};

/// Runs `schedule` open loop against `frontend` (a BatchScheduler or a
/// ShardRouter) on this thread, which both generates and collects: it
/// submits each read at its due time, calls `write` for each write, and
/// between due times polls the futures in flight, checking every answer
/// against `ref` and timing it from its due time. A future still unresolved
/// kHangGraceMs past the latency limit counts as hung.
template <typename Frontend>
Outcome RunLoad(Frontend& frontend, const std::vector<Event>& schedule,
                const Reference& ref, double limit_ms,
                const std::function<void(int64_t)>& write) {
  SpanRecorder& rec = Recorder();
  Outcome out;
  std::vector<InFlight> pending;
  std::vector<InFlight> abandoned;  // hung futures, kept alive until Stop

  auto resolve = [&](InFlight& f, int64_t now_ns) {
    const double latency = static_cast<double>(now_ns - f.due_ns) * 1e-6;
    out.latency_ms.push_back(latency);
    out.due_ns.push_back(f.due_ns);
    serve::Status status;
    bool same = false;
    const size_t node = static_cast<size_t>(f.event.node);
    if (f.event.kind == Kind::kExplain) {
      Explanation got;
      status = f.explain.Get(&got);
      const Explanation& want = ref.explained[node];
      same = got.neighbors == want.neighbors && got.scores == want.scores;
      rec.Record("serve.request.explain", f.due_ns, now_ns, -1, f.request_id);
    } else {
      int64_t got = -1;
      status = f.predict.Get(&got);
      same = got == ref.predicted[node];
      rec.Record("serve.request.predict", f.due_ns, now_ns, -1, f.request_id);
    }
    if (!status.ok()) {
      ++out.refused;
    } else if (!same) {
      ++out.wrong;
    } else if (latency > limit_ms) {
      ++out.late;
    } else {
      ++out.ok;
    }
  };
  auto poll = [&] {
    for (size_t i = 0; i < pending.size();) {
      InFlight& f = pending[i];
      const int64_t now = rec.NowNs();
      if (f.Ready()) {
        resolve(f, now);
      } else if (static_cast<double>(now - f.due_ns) * 1e-6 >
                 limit_ms + kHangGraceMs) {
        ++out.hung;
        out.latency_ms.push_back(static_cast<double>(now - f.due_ns) * 1e-6);
        out.due_ns.push_back(f.due_ns);
        abandoned.push_back(std::move(f));
      } else {
        ++i;
        continue;
      }
      if (i + 1 != pending.size()) pending[i] = std::move(pending.back());
      pending.pop_back();
    }
  };
  const int64_t base_ns = rec.NowNs() + 2000000;
  uint64_t request_id = 0;
  for (const Event& event : schedule) {
    const int64_t due = base_ns + event.due_ns;
    // Spin, polling, until the send is due: a sleeping thread in a VM can
    // take milliseconds to wake, which would time the host, not the server.
    do {
      poll();
    } while (rec.NowNs() < due);
    if (event.kind == Kind::kWrite) {
      Scope span(rec, "core.InvalidateGraph");
      write(event.node);
      ++out.writes;
      continue;
    }
    InFlight f;
    f.event = event;
    f.request_id = ++request_id;
    f.due_ns = due;
    out.gen_late_ms.push_back(static_cast<double>(rec.NowNs() - due) * 1e-6);
    {
      Scope span(rec, "serve.Submit", f.request_id);
      if (event.kind == Kind::kExplain)
        f.explain = frontend.SubmitExplain(event.node, kTopK);
      else
        f.predict = frontend.SubmitPredict(event.node);
    }
    ++out.reads;
    pending.push_back(std::move(f));
  }
  while (!pending.empty()) poll();
  return out;
}

serve::SchedulerOptions SchedulerOptionsFor(double limit_ms) {
  serve::SchedulerOptions options;
  options.max_batch_size = kMaxBatch;
  options.flush_deadline_us = kFlushDeadlineUs;
  options.num_workers = kWorkersPerScheduler;
  options.default_deadline_us = limit_ms * 1e3;
  return options;
}

/// A served model: the dataset, the session(s) and the scheduling front
/// end. Members are declared so that they are destroyed front end first.
struct Served {
  std::unique_ptr<data::Dataset> ds;
  std::unique_ptr<core::InferenceSession> session;
  std::unique_ptr<core::ShardedSession> sharded;
  std::unique_ptr<serve::BatchScheduler> scheduler;
  std::unique_ptr<serve::ShardRouter> router;

  /// Tears down front end first, dataset last.
  void Reset() {
    router.reset();
    scheduler.reset();
    sharded.reset();
    session.reset();
    ds.reset();
  }
  core::InferenceSession::Stats CacheStats() const {
    if (session) return session->stats();
    core::InferenceSession::Stats sum;
    for (int64_t s = 0; s < sharded->num_shards(); ++s) {
      const auto st = sharded->shard_session(s)->stats();
      sum.cache_hits += st.cache_hits;
      sum.cache_misses += st.cache_misses;
    }
    return sum;
  }
  serve::BatchScheduler::Stats SchedulerStats() const {
    return scheduler ? scheduler->stats() : router->stats();
  }
  Outcome Run(const std::vector<Event>& schedule, const Reference& ref,
              double limit_ms) {
    if (scheduler)
      return RunLoad(*scheduler, schedule, ref, limit_ms, [](int64_t) {});
    return RunLoad(*router, schedule, ref, limit_ms, [this](int64_t) {
      for (int64_t s = 0; s < sharded->num_shards(); ++s)
        sharded->shard_session(s)->InvalidateGraph();
    });
  }
};

/// Stands a served model up over an already generated dataset: session or
/// shards, first forward on every session, scheduler start.
void StandUp(const core::SesModel& model, bool sharded, double limit_ms,
             Served* served) {
  SpanRecorder& rec = Recorder();
  if (sharded) {
    core::ShardedSessionOptions options;
    options.partition.num_shards = kShards;
    {
      Scope span(rec, "core.ShardedSession()");
      served->sharded = std::make_unique<core::ShardedSession>(
          &model, served->ds.get(), options);
    }
    for (int64_t s = 0; s < served->sharded->num_shards(); ++s) {
      Scope span(rec, "core.Logits");
      served->sharded->shard_session(s)->Logits();
    }
    Scope span(rec, "serve.ShardRouter()");
    served->router = std::make_unique<serve::ShardRouter>(
        served->sharded.get(), SchedulerOptionsFor(limit_ms));
  } else {
    {
      Scope span(rec, "core.InferenceSession()");
      served->session =
          std::make_unique<core::InferenceSession>(&model, served->ds.get());
    }
    {
      Scope span(rec, "core.Logits");
      served->session->Logits();
    }
    Scope span(rec, "serve.BatchScheduler()");
    served->scheduler = std::make_unique<serve::BatchScheduler>(
        served->session.get(), SchedulerOptionsFor(limit_ms));
  }
}

/// Counts one load phase's reads into the result's attempted / failed.
void CountReads(const Outcome& o, Result* result) {
  result->attempted += o.reads;
  result->failed += o.reads - o.ok;
  if (o.wrong > 0)
    result->Wrong(std::to_string(o.wrong) +
                  " answers differ from the reference session");
  std::fprintf(stderr,
               "perfbench: reads=%lld ok=%lld wrong=%lld late=%lld "
               "refused=%lld hung=%lld writes=%lld\n",
               static_cast<long long>(o.reads), static_cast<long long>(o.ok),
               static_cast<long long>(o.wrong), static_cast<long long>(o.late),
               static_cast<long long>(o.refused),
               static_cast<long long>(o.hung),
               static_cast<long long>(o.writes));
}

/// Per-layer serving metrics of one traced load phase: scheduler and
/// session counters as deltas over the phase, request latencies per op and
/// submit times from the phase's spans, generator lateness from the phase.
void SetServeLayers(const Outcome& o, const serve::BatchScheduler::Stats& a,
                    const serve::BatchScheduler::Stats& b,
                    const core::InferenceSession::Stats& ca,
                    const core::InferenceSession::Stats& cb, Result* result) {
  const auto frac = [](int64_t num, int64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
  };
  const int64_t requests = b.requests - a.requests;
  const int64_t batches = b.batches - a.batches;
  const int64_t offered = requests + (b.shed - a.shed);
  result->Set("serve.avg_batch", frac(requests, batches), "count");
  result->Set("serve.deadline_flush_frac",
              frac(b.deadline_flushes - a.deadline_flushes, batches),
              "fraction");
  result->Set("serve.shed_frac", frac(b.shed - a.shed, offered), "fraction");
  result->Set("serve.expired_frac",
              frac((b.expired - a.expired) +
                       (b.expired_inflight - a.expired_inflight),
                   offered),
              "fraction");
  result->Set("serve.degraded_frac",
              frac(b.degraded_served - a.degraded_served, requests),
              "fraction");
  const int64_t hits = cb.cache_hits - ca.cache_hits;
  result->Set("core.cache_hit_frac",
              frac(hits, hits + cb.cache_misses - ca.cache_misses),
              "fraction");

  const std::vector<Span> spans = Recorder().spans();
  const auto p99 = [&](const char* name, double scale) {
    return Quantile(DurationsSeconds(spans, name), 0.99) * scale;
  };
  result->Set("serve.submit_us_p99", p99("serve.Submit", 1e6), "us");
  result->Set("serve.predict_p99_ms", p99("serve.request.predict", 1e3),
              "ms");
  result->Set("serve.explain_p99_ms", p99("serve.request.explain", 1e3),
              "ms");
  result->Set("gen.late_p99_ms", Quantile(o.gen_late_ms, 0.99), "ms");
}

/// Runs a traced load phase on `served` and sets the serving layers.
Outcome TracedLoad(Served& served, const std::vector<Event>& schedule,
                   const Reference& ref, double limit_ms, Result* result) {
  Recorder().set_enabled(true);
  const auto stats0 = served.SchedulerStats();
  const auto cache0 = served.CacheStats();
  Outcome o = served.Run(schedule, ref, limit_ms);
  SetServeLayers(o, stats0, served.SchedulerStats(), cache0,
                 served.CacheStats(), result);
  return o;
}

}  // namespace

void RunServeWrite(const RunArgs& args, Result* result) {
  SpanRecorder& rec = Recorder();
  rec.set_enabled(args.trace);
  const double limit_ms = kWriteLimitMs;

  // The served model's Fit is untimed set-up work, not a serving cost. It
  // runs twice (the two must agree); the faster one is train_s.
  double gen_seconds = 0.0;
  const auto train_ds = Generate(kServedFit.base_nodes, kServedSeed,
                                 &gen_seconds);
  CheckDigest(args, kServedFit.base_nodes, kServedSeed, *train_ds, result);
  FitOutcome fit = FitModel(kServedFit, kServedSeed, *train_ds, nullptr,
                            result);
  const double first_seconds = fit.seconds;
  fit = FitModel(kServedFit, kServedSeed, *train_ds, &fit, result);
  const core::SesModel* model = fit.model.get();
  result->Set("train_s", std::min(first_seconds, fit.seconds), "s");
  result->Set("test_acc", fit.test_acc, "fraction");
  result->Set("explain_auc", fit.explain_auc, "fraction");
  const Reference ref = BuildReference(*model, *train_ds);

  // Serving memory is measured from here on, not the training peak.
  if (!ResetPeakRss())
    std::fprintf(stderr, "perfbench: could not reset the peak-RSS mark\n");

  // Set-up: generate, build, first forward, start — several times.
  std::vector<double> setup_seconds;
  Served served;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    served.Reset();
    Scope span(rec, "setup");
    double ignored = 0.0;
    const Clock::time_point start = Clock::now();
    served.ds = Generate(kServedFit.base_nodes, kServedSeed, &ignored);
    StandUp(*model, /*sharded=*/true, limit_ms, &served);
    setup_seconds.push_back(SecondsSince(start));
    CheckDigest(args, kServedFit.base_nodes, kServedSeed, *served.ds, result);
  }
  result->Set("setup_s", Median(setup_seconds), "s");

  const std::vector<Event> schedule =
      MakeSchedule(served.ds->num_nodes(), args.seed, args.seconds,
                   kWriteEverySeconds);
  Outcome measured;
  if (!args.trace) {
    measured = served.Run(schedule, ref, limit_ms);
    CountReads(measured, result);
  } else {
    // Same traffic in two halves: untraced, then traced. The traced half
    // gives the per-layer numbers; the p50 ratio is the tracing overhead.
    const auto mid =
        schedule.begin() + static_cast<ptrdiff_t>(schedule.size() / 2);
    std::vector<Event> second(mid, schedule.end());
    for (Event& e : second) e.due_ns -= mid->due_ns;
    rec.set_enabled(false);
    const Outcome untraced =
        served.Run(std::vector<Event>(schedule.begin(), mid), ref, limit_ms);
    CountReads(untraced, result);
    measured = TracedLoad(served, second, ref, limit_ms, result);
    CountReads(measured, result);
    result->Set("trace.overhead_frac",
                Median(measured.latency_ms) / Median(untraced.latency_ms) - 1.0,
                "fraction");
    ProbeLayers(*model, *served.ds, result);
    SetFitLayers(*model, fit.seconds, result);
    result->Set("data.gen_s", MedianSpanSeconds("data.MakeScaleGraph"), "s");
  }
  const std::vector<double>& ms = measured.latency_ms;
  const double p50 = QuietQuantile(measured.due_ns, ms, 0.5, kLatencyWindowNs);
  const double p99 =
      QuietQuantile(measured.due_ns, ms, 0.99, kLatencyWindowNs);
  std::fprintf(stderr,
               "perfbench: quiet p50=%.4f ms, quiet p99=%.4f ms (windows of "
               "%.0f samples, %.0f beyond p99); whole-run p50=%.4f ms, "
               "p99=%.4f ms over %zu samples\n",
               p50, p99, kReadRate * kLatencyWindowNs * 1e-9,
               kReadRate * kLatencyWindowNs * 1e-11, Quantile(ms, 0.5),
               Quantile(ms, 0.99), ms.size());
  const double waited =
      static_cast<double>(std::count_if(
          ms.begin(), ms.end(), [](double v) { return v > 10.0; })) /
      static_cast<double>(std::max<size_t>(1, ms.size()));
  std::fprintf(stderr, "perfbench: share of reads slower than 10 ms: %.4f\n",
               waited);
  result->Set("p50_ms", p50, "ms");
  result->Set("p99_ms", p99, "ms");
  result->Set("ok_frac",
              static_cast<double>(result->attempted - result->failed) /
                  static_cast<double>(std::max<int64_t>(1, result->attempted)),
              "fraction");
  result->Set("peak_rss_mb", PeakRssMb(), "MB");
}

void ProbeServing(const core::SesModel& model, const data::Dataset& ds,
                  uint64_t seed, double seconds, Result* result) {
  const Reference ref = BuildReference(model, ds);
  Served served;
  served.ds = std::make_unique<data::Dataset>(ds);
  StandUp(model, /*sharded=*/false, kProbeLimitMs, &served);
  const Outcome o = TracedLoad(
      served, MakeSchedule(ds.num_nodes(), seed, seconds, 0.0), ref,
      kProbeLimitMs, result);
  if (o.wrong > 0)
    result->Wrong(std::to_string(o.wrong) +
                  " probe answers differ from the reference session");
}

}  // namespace perfbench
