// Overload-resilience benchmark for the serving path.
//
// Trains a small SES (GCN) model, then drives the BatchScheduler with an
// open-loop arrival process swept from 0.5x to 10x of measured capacity and
// reports how much goodput survives the overload. The per-request service
// cost is pinned with a persistent `serve_delay` fault so a handful of client
// threads can push offered load far past what one worker can serve — the
// sweep exercises the scheduler's queue bound (Explain shed first, at half
// the bound) and request deadlines (doomed-work elimination in queue,
// mid-flight expiry). Every ok answer is computed by a scheduled batch.
//
// Protocol per sweep point (fresh scheduler each time):
//   - N paced clients submit on an absolute schedule (open loop: arrivals do
//     not wait for completions), 90/10 predict/explain, every request with a
//     relative deadline;
//   - synchronous kOverloaded rejections are retried with the jittered
//     exponential backoff helper (serve::RetryDelayUs), honoring the server's
//     RetryAfter hint, up to RetryPolicy::max_attempts;
//   - after the schedule ends, every future is resolved with a bounded wait
//     and tallied by status code. `unresolved_futures` counts futures that
//     never resolved — the no-hung-futures invariant; the run requires 0.
//
// Goodput = kOk completions / pacing wall time. The headline number is
//   goodput_retention_10x = goodput(10x) / goodput(1x)
// — a serving stack without admission control and deadlines collapses here
// (workers burn their time on work that is already dead); with them it
// should stay near 1.
//
// Results go to --out (default BENCH_overload.json). The exit status is
// non-zero when any future is left unresolved, when a point's typed
// resolutions do not sum to its submissions, or, on the full sweep, when
// retention falls below 0.70. --smoke shrinks the sweep for the sanitizer
// CI runs and checks the resolution invariants only: retention measured on
// a sanitizer build is not meaningful.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "core/inference_session.h"
#include "obs/metrics.h"
#include "robust/fault.h"
#include "serve/batch_scheduler.h"
#include "serve/retry.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ses;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kMinRetention = 0.70;

/// Per-bucket histogram snapshot, so a sweep point can report quantiles of
/// the requests it contributed (the registry histogram accumulates across
/// points and the calibration phase).
std::vector<int64_t> SnapshotBuckets(const obs::Histogram& hist) {
  std::vector<int64_t> counts(hist.edges().size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) counts[i] = hist.BucketCount(i);
  return counts;
}

/// Bucket-interpolated quantile over the delta since `before` (same scheme
/// as Histogram::Quantile, restricted to this point's observations).
double DeltaQuantileUs(const obs::Histogram& hist,
                       const std::vector<int64_t>& before, double q) {
  const auto& edges = hist.edges();
  int64_t total = 0;
  std::vector<int64_t> delta(before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    delta[i] = hist.BucketCount(i) - before[i];
    total += delta[i];
  }
  if (total <= 0) return 0.0;
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(total)));
  rank = std::max<int64_t>(rank, 1);
  int64_t cumulative = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    cumulative += delta[i];
    if (cumulative < rank) continue;
    const double lo = i == 0 ? 0.0 : edges[i - 1];
    const double hi = i < edges.size() ? edges[i] : lo * 2.0;  // overflow
    const double frac =
        delta[i] > 0
            ? static_cast<double>(rank - (cumulative - delta[i])) /
                  static_cast<double>(delta[i])
            : 1.0;
    return lo + (hi - lo) * frac;
  }
  return edges.empty() ? 0.0 : edges.back();
}

/// Spin-assisted sleep to an absolute point: coarse sleep to ~200us short of
/// the target, then spin — paced arrivals at tens-of-microsecond intervals
/// need better precision than sleep_for alone gives.
void SleepUntil(Clock::time_point due) {
  const auto coarse = due - std::chrono::microseconds(200);
  if (Clock::now() < coarse) std::this_thread::sleep_until(coarse);
  while (Clock::now() < due) {
  }
}

/// Final-status tallies for one sweep point, merged across clients.
struct Tally {
  int64_t submitted = 0;   ///< logical requests (retries excluded)
  int64_t attempts = 0;    ///< submit calls (retries included)
  int64_t retries = 0;
  int64_t ok = 0;
  int64_t shed = 0;        ///< final status kOverloaded (retries exhausted)
  /// `shed` split by op: Predict sheds at the full queue bound
  /// ("queue_depth"), Explain at half of it ("queue_depth_low_priority").
  int64_t shed_predict = 0;
  int64_t shed_explain = 0;
  int64_t expired = 0;     ///< kDeadlineExceeded (queue or mid-flight)
  int64_t shutdown = 0;
  int64_t internal = 0;
  int64_t unresolved = 0;  ///< futures that never resolved (must be 0)

  int64_t Resolved() const {
    return ok + shed + expired + shutdown + internal;
  }

  void Merge(const Tally& other) {
    submitted += other.submitted;
    attempts += other.attempts;
    retries += other.retries;
    ok += other.ok;
    shed += other.shed;
    shed_predict += other.shed_predict;
    shed_explain += other.shed_explain;
    expired += other.expired;
    shutdown += other.shutdown;
    internal += other.internal;
    unresolved += other.unresolved;
  }
};

void TallyStatus(serve::StatusCode code, bool explain, Tally* tally) {
  switch (code) {
    case serve::StatusCode::kOk: ++tally->ok; break;
    case serve::StatusCode::kOverloaded:
      ++tally->shed;
      ++(explain ? tally->shed_explain : tally->shed_predict);
      break;
    case serve::StatusCode::kDeadlineExceeded: ++tally->expired; break;
    case serve::StatusCode::kShuttingDown: ++tally->shutdown; break;
    case serve::StatusCode::kInternal: ++tally->internal; break;
  }
}

/// Resolves every future with a bounded wait (so a lost future shows up as a
/// nonzero count in the report instead of hanging the benchmark forever).
template <typename Future>
void ResolveAll(std::vector<Future>& futures, Clock::time_point give_up,
                Tally* tally) {
  constexpr bool kExplain = std::is_same_v<Future, serve::ExplainFuture>;
  for (auto& future : futures) {
    while (!future.Ready() && Clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    if (!future.Ready()) {
      ++tally->unresolved;
      continue;
    }
    TallyStatus(future.Wait().code, kExplain, tally);
  }
}

/// Submits one request with bounded retry on synchronous kOverloaded
/// rejections (shed decisions are immediate futures, so the client learns
/// the verdict without blocking on queued work). Returns the final future.
template <typename Submit>
auto SubmitWithRetry(Submit&& submit, const serve::RetryPolicy& policy,
                     util::Rng* rng, Tally* tally)
    -> decltype(submit()) {
  auto future = submit();
  ++tally->attempts;
  for (int attempt = 0; attempt + 1 < policy.max_attempts; ++attempt) {
    if (!future.Ready()) break;  // queued, not an immediate rejection
    const serve::Status status = future.Wait();
    if (status.code != serve::StatusCode::kOverloaded) break;
    ++tally->retries;
    SleepUntil(Clock::now() +
               std::chrono::microseconds(serve::RetryDelayUs(
                   policy, attempt, status.retry_after_us, rng->Uniform())));
    future = submit();
    ++tally->attempts;
  }
  return future;
}

/// One point of the sweep.
struct SweepPoint {
  double offered_x = 0.0;
  double offered_qps = 0.0;
  double pace_wall_s = 0.0;
  double goodput_qps = 0.0;
  double p99_ms = 0.0;  ///< e2e of requests that reached a worker this point
  Tally tally;
  serve::BatchScheduler::Stats sched;
};

}  // namespace

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  bench::Profile profile = bench::Profile::FromFlags(flags);
  obs::Session obs_session(flags);
  const bool smoke = flags.GetBool("smoke", false);
  const int64_t clients = flags.GetInt("clients", smoke ? 2 : 4);
  const double point_seconds =
      flags.GetDouble("point-seconds", smoke ? 0.5 : 2.0);
  const int64_t serve_delay_us =
      flags.GetInt("serve-delay-us", smoke ? 400 : 100);
  const double deadline_ms = flags.GetDouble("deadline-ms", smoke ? 30.0 : 15.0);
  const int64_t calib_queries = flags.GetInt("calib-queries", smoke ? 2000 : 20000);
  const std::string out_path = flags.GetString("out", "BENCH_overload.json");
  std::vector<double> multipliers = smoke
                                        ? std::vector<double>{0.5, 1.0, 10.0}
                                        : std::vector<double>{0.5, 1.0, 2.0,
                                                              4.0, 10.0};
  if (smoke) {
    profile.real_scale = std::min(profile.real_scale, 0.15);
    profile.epochs = std::min<int64_t>(profile.epochs, 3);
    profile.hidden = std::min<int64_t>(profile.hidden, 32);
  }
  std::printf("[Overload] %s clients=%lld serve_delay=%lldus deadline=%.1fms\n",
              profile.Describe().c_str(), static_cast<long long>(clients),
              static_cast<long long>(serve_delay_us), deadline_ms);

  auto ds = data::MakeRealWorldByName("Cora", profile.real_scale, 1);
  core::SesOptions opt;
  opt.backbone = "GCN";
  core::SesModel model(opt);
  model.Fit(ds, profile.MakeTrainConfig(1));
  core::InferenceSession session(&model, &ds);
  session.Logits();  // publish the first snapshot before the sweep
  const int64_t num_nodes = ds.graph.num_nodes();
  std::printf("model trained (%lld nodes)\n",
              static_cast<long long>(num_nodes));

  const robust::FaultPlan service_cost = robust::FaultPlan::Parse(
      "serve_delay:us=" + std::to_string(serve_delay_us));
  obs::Histogram& e2e_hist = obs::MetricsRegistry::Get().GetHistogram(
      "ses.sched.e2e_us", obs::Histogram::DefaultLatencyEdgesUs());

  // --- Capacity calibration -------------------------------------------------
  // Flood a plain scheduler (same synthetic service cost, no admission, no
  // deadlines) through the streaming submit path; backpressure closes the
  // loop, so the sustained rate IS the service capacity.
  double capacity_qps = 0.0;
  {
    serve::SchedulerOptions calib_opt;
    calib_opt.max_batch_size = 64;
    calib_opt.flush_deadline_us = 200;
    calib_opt.num_workers = 1;
    calib_opt.fault_plan = service_cost;
    serve::BatchScheduler scheduler(&session, calib_opt);
    constexpr int64_t kChunk = 16;
    constexpr int64_t kWindow = 512;
    std::vector<serve::PredictFuture> window(
        static_cast<size_t>(std::min(kWindow, calib_queries)));
    int64_t chunk_nodes[kChunk];
    serve::PredictFuture chunk_futs[kChunk];
    util::Rng rng(7);
    util::Timer timer;
    for (int64_t q = 0; q < calib_queries; q += kChunk) {
      const int64_t burst = std::min(kChunk, calib_queries - q);
      for (int64_t i = 0; i < burst; ++i)
        chunk_nodes[i] = static_cast<int64_t>(
            rng.UniformInt(static_cast<uint64_t>(num_nodes)));
      const int64_t accepted =
          scheduler.SubmitPredictStream(chunk_nodes, burst, chunk_futs);
      SES_CHECK(accepted == burst);
      for (int64_t i = 0; i < burst; ++i) {
        const size_t slot = static_cast<size_t>(
            (q + i) % static_cast<int64_t>(window.size()));
        if (q + i >= static_cast<int64_t>(window.size())) window[slot].Get();
        window[slot] = std::move(chunk_futs[i]);
      }
    }
    for (auto& f : window)
      if (f.valid()) f.Get();
    capacity_qps = static_cast<double>(calib_queries) /
                   std::max(timer.ElapsedSeconds(), 1e-9);
    scheduler.Stop();
  }
  std::printf("calibrated capacity: %.0f qps (serve_delay %lld us/request)\n",
              capacity_qps, static_cast<long long>(serve_delay_us));

  // --- Overload sweep -------------------------------------------------------
  const double deadline_us = deadline_ms * 1e3;
  // Queue bound sized so an admitted request can still make its deadline.
  // The deadline must also cover two batches besides the queue: the one in
  // flight when the request is admitted, and its own. With the full sweep's
  // defaults a 64-request batch at 100 us per request runs 6.4 ms of the
  // 15 ms deadline, which is why a bound at 0.7 x (capacity x deadline)
  // expired 8,368 requests at 1x; 0.3 leaves room for both batches.
  const int64_t max_queued = std::max<int64_t>(
      1, static_cast<int64_t>(capacity_qps * deadline_us * 1e-6 * 0.3));
  const double explain_fraction = 0.1;
  serve::RetryPolicy retry_policy;  // defaults: 4 attempts, jittered exp

  std::vector<SweepPoint> points;
  for (const double mult : multipliers) {
    serve::SchedulerOptions sweep_opt;
    sweep_opt.max_batch_size = 64;
    sweep_opt.flush_deadline_us = 200;
    sweep_opt.num_workers = 1;
    sweep_opt.default_deadline_us = deadline_us;
    sweep_opt.max_queued_requests = max_queued;
    sweep_opt.fault_plan = service_cost;
    serve::BatchScheduler scheduler(&session, sweep_opt);

    const double offered_qps = capacity_qps * mult;
    const int64_t per_client = std::max<int64_t>(
        1, static_cast<int64_t>(offered_qps * point_seconds /
                                static_cast<double>(clients)));
    const double interval_ns =
        1e9 / (offered_qps / static_cast<double>(clients));
    const std::vector<int64_t> e2e_before = SnapshotBuckets(e2e_hist);

    std::mutex merge_mutex;
    Tally tally;
    util::Timer pace_timer;
    const auto pace_start = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    for (int64_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        util::Rng rng(static_cast<uint64_t>(9000 + c));
        Tally local;
        std::vector<serve::PredictFuture> predicts;
        std::vector<serve::ExplainFuture> explains;
        predicts.reserve(static_cast<size_t>(per_client));
        for (int64_t i = 0; i < per_client; ++i) {
          SleepUntil(pace_start + std::chrono::nanoseconds(static_cast<int64_t>(
                                      static_cast<double>(i) * interval_ns)));
          const int64_t node = static_cast<int64_t>(
              rng.UniformInt(static_cast<uint64_t>(num_nodes)));
          ++local.submitted;
          if (rng.Uniform() < explain_fraction) {
            explains.push_back(SubmitWithRetry(
                [&] { return scheduler.SubmitExplain(node, /*top_k=*/5); },
                retry_policy, &rng, &local));
          } else {
            predicts.push_back(SubmitWithRetry(
                [&] { return scheduler.SubmitPredict(node); }, retry_policy,
                &rng, &local));
          }
        }
        // Everything admitted drains at capacity within the queue bound;
        // 20 s of grace means a miss here is a lost future, not a slow one.
        const auto give_up = Clock::now() + std::chrono::seconds(20);
        ResolveAll(predicts, give_up, &local);
        ResolveAll(explains, give_up, &local);
        std::lock_guard<std::mutex> lock(merge_mutex);
        tally.Merge(local);
      });
    }
    for (auto& t : threads) t.join();
    const double pace_wall_s = pace_timer.ElapsedSeconds();

    SweepPoint point;
    point.offered_x = mult;
    point.offered_qps = offered_qps;
    point.pace_wall_s = pace_wall_s;
    point.goodput_qps =
        static_cast<double>(tally.ok) / std::max(pace_wall_s, 1e-9);
    point.p99_ms = DeltaQuantileUs(e2e_hist, e2e_before, 0.99) / 1e3;
    point.tally = tally;
    scheduler.Stop();
    point.sched = scheduler.stats();
    points.push_back(point);
    std::printf(
        "%5.1fx offered (%8.0f qps): goodput %8.0f qps | ok %lld shed %lld "
        "(predict %lld / explain %lld) expired %lld internal %lld "
        "unresolved %lld | retries %lld | batches %lld | p99 %.2f ms\n",
        mult, offered_qps, point.goodput_qps,
        static_cast<long long>(tally.ok), static_cast<long long>(tally.shed),
        static_cast<long long>(tally.shed_predict),
        static_cast<long long>(tally.shed_explain),
        static_cast<long long>(tally.expired),
        static_cast<long long>(tally.internal),
        static_cast<long long>(tally.unresolved),
        static_cast<long long>(tally.retries),
        static_cast<long long>(point.sched.batches), point.p99_ms);
  }

  // --- Report ---------------------------------------------------------------
  double goodput_1x = 0.0, goodput_max = 0.0, max_x = 0.0;
  int64_t total_unresolved = 0;
  for (const auto& p : points) {
    if (p.offered_x == 1.0) goodput_1x = p.goodput_qps;
    if (p.offered_x > max_x) {
      max_x = p.offered_x;
      goodput_max = p.goodput_qps;
    }
    total_unresolved += p.tally.unresolved;
  }
  const double retention =
      goodput_1x > 0.0 ? goodput_max / goodput_1x : 0.0;
  std::printf(
      "goodput retention at %.0fx offered: %.1f%% (%.0f / %.0f qps), "
      "%lld unresolved futures\n",
      max_x, retention * 100.0, goodput_max, goodput_1x,
      static_cast<long long>(total_unresolved));

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"dataset\": \"Cora\",\n"
      << "  \"scale\": " << profile.real_scale << ",\n"
      << "  \"nodes\": " << num_nodes << ",\n"
      << "  \"clients\": " << clients << ",\n"
      << "  \"serve_delay_us\": " << serve_delay_us << ",\n"
      << "  \"deadline_ms\": " << deadline_ms << ",\n"
      << "  \"max_queued_requests\": " << max_queued << ",\n"
      << "  \"point_seconds\": " << point_seconds << ",\n"
      << "  \"capacity_qps\": " << capacity_qps << ",\n"
      << "  \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    out << "    {\n"
        << "      \"offered_x\": " << p.offered_x << ",\n"
        << "      \"offered_qps\": " << p.offered_qps << ",\n"
        << "      \"pace_wall_s\": " << p.pace_wall_s << ",\n"
        << "      \"submitted\": " << p.tally.submitted << ",\n"
        << "      \"attempts\": " << p.tally.attempts << ",\n"
        << "      \"retries\": " << p.tally.retries << ",\n"
        << "      \"ok\": " << p.tally.ok << ",\n"
        << "      \"shed\": " << p.tally.shed << ",\n"
        << "      \"shed_predict\": " << p.tally.shed_predict << ",\n"
        << "      \"shed_explain\": " << p.tally.shed_explain << ",\n"
        << "      \"expired\": " << p.tally.expired << ",\n"
        << "      \"shutdown\": " << p.tally.shutdown << ",\n"
        << "      \"internal\": " << p.tally.internal << ",\n"
        << "      \"unresolved_futures\": " << p.tally.unresolved << ",\n"
        << "      \"goodput_qps\": " << p.goodput_qps << ",\n"
        << "      \"shed_rate\": "
        << (p.tally.submitted > 0
                ? static_cast<double>(p.tally.shed) /
                      static_cast<double>(p.tally.submitted)
                : 0.0)
        << ",\n"
        << "      \"p99_ms\": " << p.p99_ms << ",\n"
        << "      \"expired_queue\": " << p.sched.expired << ",\n"
        << "      \"expired_inflight\": " << p.sched.expired_inflight << ",\n"
        << "      \"batches\": " << p.sched.batches << "\n"
        << "    }" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"goodput_1x\": " << goodput_1x << ",\n"
      << "  \"goodput_" << static_cast<int64_t>(max_x)
      << "x\": " << goodput_max << ",\n"
      << "  \"max_offered_x\": " << max_x << ",\n"
      << "  \"goodput_retention_10x\": " << retention << ",\n"
      << "  \"unresolved_futures\": " << total_unresolved << "\n"
      << "}\n";
  std::printf("results written to %s\n", out_path.c_str());

  bool ok = total_unresolved == 0;
  for (const auto& p : points) {
    if (p.tally.Resolved() == p.tally.submitted) continue;
    std::fprintf(stderr, "%.1fx point: %lld typed resolutions for %lld "
                 "submissions\n", p.offered_x,
                 static_cast<long long>(p.tally.Resolved()),
                 static_cast<long long>(p.tally.submitted));
    ok = false;
  }
  if (total_unresolved != 0)
    std::fprintf(stderr, "%lld futures left unresolved\n",
                 static_cast<long long>(total_unresolved));
  if (!smoke && retention < kMinRetention) {
    std::fprintf(stderr, "goodput retention %.1f%% is below the %.0f%% "
                 "floor\n", retention * 100.0, kMinRetention * 100.0);
    ok = false;
  }
  return ok ? 0 : 1;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
