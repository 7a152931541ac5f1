// Serving-throughput benchmark for the tape-free inference fast path.
//
// Trains a small SES (GCN) model on the Cora stand-in, then measures:
//   1. single-thread: the pre-PR tape-building eval forward vs. the
//      InferenceSession fast path (tape-free forward over cached per-graph
//      artifacts, and the warm memoized predict), with a bitwise logit check;
//   2. multi-thread: N workers issuing a mixed 80/20 predict/explain query
//      stream against one shared session, reporting queries/sec, p50/p99
//      latency, and the session cache stats;
//   3. scheduler: the serve::BatchScheduler front end vs. the direct path,
//      after a bitwise logit check through the scheduled path. Closed-loop
//      mode (submit -> Get, one in flight per client) shows what the flush
//      deadline costs a synchronous caller; open-loop mode (each client
//      streams requests with a bounded outstanding window, like a pipelined
//      RPC client) shows the micro-batching throughput win. Both paths carry
//      full per-request accounting — the direct path records its latency
//      histogram sample inline per request, the scheduled path gets the same
//      from the worker's batched ObserveMany — so the comparison is
//      serving-loop vs. serving-loop, not instrumented vs. bare.
//
// Results go to --out (default BENCH_serving.json). --smoke shrinks every
// knob for the ASan CI run (2 threads, tiny query counts).
//
// Latency percentiles come from labeled registry histograms
// (ses.infer.latency_us{op=...}). Combined with the obs::Session flags
// (--metrics-port, --access-log, --trace-out) a run is fully scrapable and
// joinable while it executes.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "autograd/variable.h"
#include "bench_common.h"
#include "core/inference_session.h"
#include "obs/flight_recorder.h"
#include "serve/batch_scheduler.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ses;
namespace ag = ses::autograd;

namespace {

/// The pre-PR eval path: a full taped forward (autograd nodes + backward
/// closures allocated) with no cached aggregation — what SesModel::Logits
/// cost before the inference fast path existed.
tensor::Tensor TapedLogits(const core::SesModel& model,
                           const data::Dataset& ds,
                           const ag::EdgeListPtr& edges) {
  util::Rng rng(0);
  nn::FeatureInput input =
      (model.options().use_feature_mask && model.feature_mask_nnz().size() > 0)
          ? nn::FeatureInput::Sparse(
                ds.features, ag::Variable::Constant(model.feature_mask_nnz()))
          : models::MakeInput(ds);
  ag::Variable adj_mask;
  if (model.options().use_structure_mask &&
      model.structure_mask_adj().size() > 0)
    adj_mask = ag::Variable::Constant(model.structure_mask_adj());
  return model.encoder()
      ->Forward(input, edges, adj_mask, 0.0f, /*training=*/false, &rng)
      .logits.value();
}

}  // namespace

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  bench::Profile profile = bench::Profile::FromFlags(flags);
  obs::Session obs_session(flags);
  const bool smoke = flags.GetBool("smoke", false);
  const int64_t threads =
      flags.GetInt("threads", smoke ? 2 : 4);
  const int64_t queries_per_thread =
      flags.GetInt("queries", smoke ? 50 : 2000);
  const int64_t warm_iters = smoke ? 3 : 20;
  // Phase 3 knobs. The open-loop comparison needs enough concurrent clients
  // for micro-batches to actually form (the acceptance bar is >= 8).
  const int64_t sched_clients =
      flags.GetInt("sched-clients", smoke ? 2 : std::max<int64_t>(threads, 8));
  const int64_t closed_queries =
      flags.GetInt("closed-queries", smoke ? 20 : 1000);
  const int64_t open_queries =
      flags.GetInt("open-queries", smoke ? 200 : 50000);
  const std::string out_path = flags.GetString("out", "BENCH_serving.json");
  // Request-forensics knobs. --flight-dump arms the flight recorder's
  // auto-dump: the first request whose queue wait exceeds
  // --flight-queue-budget-us writes the slowest-requests snapshot there
  // (the CI forensics stage sets a 1 us budget so the breach is certain).
  const std::string flight_dump = flags.GetString("flight-dump", "");
  const double flight_queue_budget_us =
      flags.GetDouble("flight-queue-budget-us", 1e3);
  if (smoke) {
    profile.real_scale = std::min(profile.real_scale, 0.15);
    profile.epochs = std::min<int64_t>(profile.epochs, 3);
    profile.hidden = std::min<int64_t>(profile.hidden, 32);
  }
  std::printf("[Serving] %s threads=%lld queries/thread=%lld\n",
              profile.Describe().c_str(), static_cast<long long>(threads),
              static_cast<long long>(queries_per_thread));

  // Register every metric family up front — the labeled latency histograms
  // included — so a live /metrics scrape taken at any point of the run,
  // including during training, already sees the full serving exposition.
  // The report below reads its percentiles back out of the histograms
  // instead of keeping private sorted-vector percentile code.
  auto& registry = obs::MetricsRegistry::Get();
  const auto& edges_us = obs::Histogram::DefaultLatencyEdgesUs();
  obs::Histogram& all_hist =
      registry.GetHistogram("ses.infer.latency_us", {{"op", "all"}}, edges_us);
  obs::Histogram& predict_hist = registry.GetHistogram(
      "ses.infer.latency_us", {{"op", "predict"}}, edges_us);
  obs::Histogram& explain_hist = registry.GetHistogram(
      "ses.infer.latency_us", {{"op", "explain"}}, edges_us);
  // The scheduler registers its own families on construction, but that
  // happens in phase 3 — pre-touch them here so a scrape taken during
  // training already sees the ses.sched.* exposition (ci.sh relies on it).
  registry.GetCounter("ses.sched.requests");
  registry.GetCounter("ses.sched.batches");
  registry.GetGauge("ses.sched.queue_depth");
  registry.GetHistogram("ses.sched.queue_wait_us", edges_us);
  registry.GetHistogram("ses.sched.e2e_us", edges_us);
  // Critical-path stage histograms (filled by the scheduler in phase 3;
  // pre-touched so early scrapes and BENCH_serving.json consumers always see
  // the families).
  obs::Histogram& stage_admit_hist =
      registry.GetHistogram("ses.sched.stage.admit_us", edges_us);
  obs::Histogram& stage_seal_hist =
      registry.GetHistogram("ses.sched.stage.seal_us", edges_us);
  obs::Histogram& stage_queue_hist =
      registry.GetHistogram("ses.sched.stage.queue_us", edges_us);
  obs::Histogram& stage_forward_hist =
      registry.GetHistogram("ses.sched.stage.forward_us", edges_us);
  obs::Histogram& stage_resolve_hist =
      registry.GetHistogram("ses.sched.stage.resolve_us", edges_us);

  if (!flight_dump.empty())
    obs::FlightRecorder::Get().ArmAutoDump(flight_dump,
                                           flight_queue_budget_us);

  auto ds = data::MakeRealWorldByName("Cora", profile.real_scale, 1);
  core::SesOptions opt;
  opt.backbone = "GCN";
  core::SesModel model(opt);
  model.Fit(ds, profile.MakeTrainConfig(1));
  std::printf("model trained (%lld nodes)\n",
              static_cast<long long>(ds.graph.num_nodes()));

  core::InferenceSession session(&model, &ds);
  const auto edges = ds.graph.DirectedEdges(/*add_self_loops=*/true);

  // --- Phase 1: single-thread tape path vs. fast path -----------------------
  // Bitwise check first: the fast path must be indistinguishable from the
  // taped eval forward.
  tensor::Tensor tape_logits = TapedLogits(model, ds, edges);
  tensor::Tensor fast_logits = session.Logits();
  const float max_abs_diff = tape_logits.MaxAbsDiff(fast_logits);
  SES_CHECK(max_abs_diff == 0.0f &&
            "fast-path logits must be bitwise identical to the tape path");

  util::Timer timer;
  for (int64_t i = 0; i < warm_iters; ++i) TapedLogits(model, ds, edges);
  const double tape_ms = timer.ElapsedSeconds() * 1e3 / warm_iters;

  timer.Reset();
  for (int64_t i = 0; i < warm_iters; ++i) session.ForwardLogits();
  const double forward_ms = timer.ElapsedSeconds() * 1e3 / warm_iters;

  const int64_t predict_iters = warm_iters * 50;
  timer.Reset();
  for (int64_t i = 0; i < predict_iters; ++i)
    session.PredictNode(i % ds.graph.num_nodes());
  const double predict_ms = timer.ElapsedSeconds() * 1e3 / predict_iters;

  const double forward_speedup = tape_ms / std::max(forward_ms, 1e-9);
  const double predict_speedup = tape_ms / std::max(predict_ms, 1e-9);
  std::printf(
      "tape %.3f ms | tape-free forward %.3f ms (%.2fx) | warm predict "
      "%.4f ms (%.1fx) | max_abs_diff %g\n",
      tape_ms, forward_ms, forward_speedup, predict_ms, predict_speedup,
      max_abs_diff);

  // --- Phase 2: multi-thread mixed serving loop ----------------------------
  std::atomic<int64_t> predicts{0}, explains{0};
  timer.Reset();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int64_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      util::Rng rng(static_cast<uint64_t>(1000 + w));
      for (int64_t q = 0; q < queries_per_thread; ++q) {
        const int64_t node =
            static_cast<int64_t>(rng.UniformInt(
                static_cast<uint64_t>(ds.graph.num_nodes())));
        util::Timer qt;
        if (rng.Uniform() < 0.8) {
          session.PredictNode(node);
          const double us = qt.ElapsedSeconds() * 1e6;
          predict_hist.Observe(us);
          all_hist.Observe(us);
          predicts.fetch_add(1, std::memory_order_relaxed);
        } else {
          session.ExplainNode(node, /*top_k=*/5);
          const double us = qt.ElapsedSeconds() * 1e6;
          explain_hist.Observe(us);
          all_hist.Observe(us);
          explains.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  const double wall_s = timer.ElapsedSeconds();

  const int64_t total_queries = all_hist.Count();
  const double qps =
      static_cast<double>(total_queries) / std::max(wall_s, 1e-9);
  const double p50 = all_hist.P50() / 1e3;  // histogram is in us, report ms
  const double p99 = all_hist.P99() / 1e3;

  const auto cache = session.stats();
  std::printf(
      "%lld queries in %.2fs: %.0f qps, p50 %.4f ms, p99 %.4f ms | session "
      "cache %lld hits / %lld misses\n",
      static_cast<long long>(total_queries), wall_s, qps, p50, p99,
      static_cast<long long>(cache.cache_hits),
      static_cast<long long>(cache.cache_misses));

  // --- Phase 3: batch scheduler vs. direct path ----------------------------
  serve::SchedulerOptions sched_opt;
  sched_opt.max_batch_size = 256;
  sched_opt.flush_deadline_us = 200;
  sched_opt.num_workers = 1;
  serve::BatchScheduler scheduler(&session, sched_opt);
  obs::Histogram& e2e_hist = registry.GetHistogram(
      "ses.sched.e2e_us", obs::Histogram::DefaultLatencyEdgesUs());
  obs::Histogram& queue_wait_hist = registry.GetHistogram(
      "ses.sched.queue_wait_us", obs::Histogram::DefaultLatencyEdgesUs());

  // Bitwise gate first: logit rows and predictions through the scheduled
  // path must be indistinguishable from the direct session calls.
  {
    const int64_t probe = std::min<int64_t>(64, ds.graph.num_nodes());
    std::vector<serve::LogitsRowFuture> rows;
    std::vector<serve::PredictFuture> preds;
    for (int64_t n = 0; n < probe; ++n) {
      rows.push_back(scheduler.SubmitLogitsRow(n));
      preds.push_back(scheduler.SubmitPredict(n));
    }
    const tensor::Tensor& direct = session.Logits();
    for (int64_t n = 0; n < probe; ++n) {
      const std::vector<float> row = rows[static_cast<size_t>(n)].Get();
      SES_CHECK(static_cast<int64_t>(row.size()) == direct.cols());
      const float* want = direct.RowPtr(n);
      for (size_t c = 0; c < row.size(); ++c)
        SES_CHECK(row[c] == want[c] &&
                  "scheduled logits must be bitwise identical");
      SES_CHECK(preds[static_cast<size_t>(n)].Get() ==
                session.PredictNode(n));
    }
  }

  // Closed-loop: every client keeps exactly one request in flight, so lone
  // arrivals ride the flush deadline — this mode prices the latency a
  // synchronous caller pays for batching.
  std::atomic<int64_t> sink{0};
  timer.Reset();
  {
    std::vector<std::thread> clients;
    for (int64_t w = 0; w < sched_clients; ++w) {
      clients.emplace_back([&, w] {
        util::Rng rng(static_cast<uint64_t>(2000 + w));
        int64_t local = 0;
        for (int64_t q = 0; q < closed_queries; ++q) {
          const int64_t node = static_cast<int64_t>(
              rng.UniformInt(static_cast<uint64_t>(ds.graph.num_nodes())));
          local += scheduler.SubmitPredict(node).Get();
        }
        sink.fetch_add(local, std::memory_order_relaxed);
      });
    }
    for (auto& th : clients) th.join();
  }
  const double closed_wall_s = timer.ElapsedSeconds();
  const double closed_qps =
      static_cast<double>(sched_clients * closed_queries) /
      std::max(closed_wall_s, 1e-9);
  // Snapshot before the open-loop flood so these quantiles describe the
  // closed-loop regime.
  const double closed_p50_ms = e2e_hist.P50() / 1e3;
  const double closed_p99_ms = e2e_hist.P99() / 1e3;

  // Open-loop, direct baseline: clients hammer PredictNode back to back with
  // the same per-query accounting phase 2 uses (timer + latency histogram;
  // the SLO point is recorded inside PredictNode's RequestScope).
  timer.Reset();
  {
    std::vector<std::thread> clients;
    for (int64_t w = 0; w < sched_clients; ++w) {
      clients.emplace_back([&, w] {
        util::Rng rng(static_cast<uint64_t>(3000 + w));
        int64_t local = 0;
        for (int64_t q = 0; q < open_queries; ++q) {
          const int64_t node = static_cast<int64_t>(
              rng.UniformInt(static_cast<uint64_t>(ds.graph.num_nodes())));
          util::Timer qt;
          local += session.PredictNode(node);
          predict_hist.Observe(qt.ElapsedSeconds() * 1e6);
        }
        sink.fetch_add(local, std::memory_order_relaxed);
      });
    }
    for (auto& th : clients) th.join();
  }
  const double direct_wall_s = timer.ElapsedSeconds();
  const double direct_qps =
      static_cast<double>(sched_clients * open_queries) /
      std::max(direct_wall_s, 1e-9);

  // Open-loop, scheduled: each client pipelines submissions — arrivals go
  // in via SubmitPredictStream in bursts of kChunk, and a bounded window of
  // outstanding futures is harvested as it wraps. Latency accounting
  // happens worker-side (queue-wait + end-to-end histograms, sched.e2e
  // SLO), batched per flush.
  constexpr int64_t kWindow = 512;
  constexpr int64_t kChunk = 16;
  timer.Reset();
  {
    std::vector<std::thread> clients;
    for (int64_t w = 0; w < sched_clients; ++w) {
      clients.emplace_back([&, w] {
        util::Rng rng(static_cast<uint64_t>(3000 + w));  // same stream as direct
        std::vector<serve::PredictFuture> window(
            static_cast<size_t>(std::max(kChunk, std::min(kWindow, open_queries))));
        int64_t chunk_nodes[kChunk];
        serve::PredictFuture chunk_futs[kChunk];
        int64_t local = 0;
        for (int64_t q = 0; q < open_queries; q += kChunk) {
          const int64_t burst = std::min(kChunk, open_queries - q);
          for (int64_t i = 0; i < burst; ++i)
            chunk_nodes[i] = static_cast<int64_t>(
                rng.UniformInt(static_cast<uint64_t>(ds.graph.num_nodes())));
          const int64_t accepted =
              scheduler.SubmitPredictStream(chunk_nodes, burst, chunk_futs);
          SES_CHECK(accepted == burst);
          for (int64_t i = 0; i < burst; ++i) {
            const size_t slot = static_cast<size_t>(
                (q + i) % static_cast<int64_t>(window.size()));
            if (q + i >= static_cast<int64_t>(window.size()))
              local += window[slot].Get();
            window[slot] = std::move(chunk_futs[i]);
          }
        }
        for (auto& f : window)
          if (f.valid()) local += f.Get();
        sink.fetch_add(local, std::memory_order_relaxed);
      });
    }
    for (auto& th : clients) th.join();
  }
  const double sched_wall_s = timer.ElapsedSeconds();
  const double sched_qps =
      static_cast<double>(sched_clients * open_queries) /
      std::max(sched_wall_s, 1e-9);
  const double sched_speedup = sched_qps / std::max(direct_qps, 1e-9);
  // Dominated by the open-loop flood (it outnumbers the earlier phases by
  // ~50x), so these quantiles describe the open-loop regime.
  const double open_p50_ms = e2e_hist.P50() / 1e3;
  const double open_p99_ms = e2e_hist.P99() / 1e3;

  const auto sched_stats = scheduler.stats();
  scheduler.Stop();
  const double avg_batch =
      sched_stats.batches > 0
          ? static_cast<double>(sched_stats.requests) /
                static_cast<double>(sched_stats.batches)
          : 0.0;
  std::printf(
      "scheduler (%lld clients): closed-loop %.0f qps (p50 %.3f ms) | "
      "open-loop direct %.0f qps vs scheduled %.0f qps (%.2fx) | avg batch "
      "%.1f over %lld batches (%lld full / %lld deadline / %lld shutdown)\n",
      static_cast<long long>(sched_clients), closed_qps, closed_p50_ms,
      direct_qps, sched_qps, sched_speedup, avg_batch,
      static_cast<long long>(sched_stats.batches),
      static_cast<long long>(sched_stats.full_flushes),
      static_cast<long long>(sched_stats.deadline_flushes),
      static_cast<long long>(sched_stats.shutdown_flushes));

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  const double p95 = all_hist.P95() / 1e3;
  const double p999 = all_hist.P999() / 1e3;
  out << "{\n"
      << "  \"dataset\": \"Cora\",\n"
      << "  \"scale\": " << profile.real_scale << ",\n"
      << "  \"nodes\": " << ds.graph.num_nodes() << ",\n"
      << "  \"hidden\": " << profile.hidden << ",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"queries_per_thread\": " << queries_per_thread << ",\n"
      << "  \"single_thread\": {\n"
      << "    \"tape_forward_ms\": " << tape_ms << ",\n"
      << "    \"session_forward_ms\": " << forward_ms << ",\n"
      << "    \"warm_predict_ms\": " << predict_ms << ",\n"
      << "    \"forward_speedup\": " << forward_speedup << ",\n"
      << "    \"predict_speedup\": " << predict_speedup << ",\n"
      << "    \"logits_max_abs_diff\": " << max_abs_diff << "\n"
      << "  },\n"
      << "  \"serving\": {\n"
      << "    \"queries\": " << total_queries << ",\n"
      << "    \"predict_queries\": " << predicts.load() << ",\n"
      << "    \"explain_queries\": " << explains.load() << ",\n"
      << "    \"wall_seconds\": " << wall_s << ",\n"
      << "    \"qps\": " << qps << ",\n"
      << "    \"p50_ms\": " << p50 << ",\n"
      << "    \"p95_ms\": " << p95 << ",\n"
      << "    \"p99_ms\": " << p99 << ",\n"
      << "    \"p999_ms\": " << p999 << "\n"
      << "  },\n"
      << "  \"scheduler\": {\n"
      << "    \"clients\": " << sched_clients << ",\n"
      << "    \"max_batch_size\": " << sched_opt.max_batch_size << ",\n"
      << "    \"flush_deadline_us\": " << sched_opt.flush_deadline_us << ",\n"
      << "    \"workers\": " << sched_opt.num_workers << ",\n"
      << "    \"closed_loop\": {\n"
      << "      \"queries\": " << sched_clients * closed_queries << ",\n"
      << "      \"qps\": " << closed_qps << ",\n"
      << "      \"p50_ms\": " << closed_p50_ms << ",\n"
      << "      \"p99_ms\": " << closed_p99_ms << "\n"
      << "    },\n"
      << "    \"open_loop\": {\n"
      << "      \"queries\": " << sched_clients * open_queries << ",\n"
      << "      \"direct_qps\": " << direct_qps << ",\n"
      << "      \"sched_qps\": " << sched_qps << ",\n"
      << "      \"speedup_vs_direct\": " << sched_speedup << ",\n"
      << "      \"p50_ms\": " << open_p50_ms << ",\n"
      << "      \"p99_ms\": " << open_p99_ms << "\n"
      << "    },\n"
      << "    \"batches\": " << sched_stats.batches << ",\n"
      << "    \"avg_batch\": " << avg_batch << ",\n"
      << "    \"full_flushes\": " << sched_stats.full_flushes << ",\n"
      << "    \"deadline_flushes\": " << sched_stats.deadline_flushes << ",\n"
      << "    \"shutdown_flushes\": " << sched_stats.shutdown_flushes << ",\n"
      << "    \"queue_wait_p99_us\": " << queue_wait_hist.P99() << ",\n"
      << "    \"stages\": {\n"
      << "      \"admit\": {\"p50_us\": " << stage_admit_hist.P50()
      << ", \"p99_us\": " << stage_admit_hist.P99() << "},\n"
      << "      \"seal\": {\"p50_us\": " << stage_seal_hist.P50()
      << ", \"p99_us\": " << stage_seal_hist.P99() << "},\n"
      << "      \"queue\": {\"p50_us\": " << stage_queue_hist.P50()
      << ", \"p99_us\": " << stage_queue_hist.P99() << "},\n"
      << "      \"forward\": {\"p50_us\": " << stage_forward_hist.P50()
      << ", \"p99_us\": " << stage_forward_hist.P99() << "},\n"
      << "      \"resolve\": {\"p50_us\": " << stage_resolve_hist.P50()
      << ", \"p99_us\": " << stage_resolve_hist.P99() << "}\n"
      << "    }\n"
      << "  },\n"
      << "  \"session_cache\": {\n"
      << "    \"hits\": " << cache.cache_hits << ",\n"
      << "    \"misses\": " << cache.cache_misses << "\n"
      << "  }\n"
      << "}\n";
  std::printf("results written to %s\n", out_path.c_str());
  return 0;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
