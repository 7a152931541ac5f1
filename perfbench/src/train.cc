#include "train.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "core/inference_session.h"
#include "layers.h"
#include "serve.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/// Seconds of serve traffic the traced run sends to the trained model so
/// that the serving layers are reported for this workload too.
constexpr double kServingProbeSeconds = 5.0;
/// Direct queries after each Fit (p50_ms / p99_ms of this workload). p99_ms
/// is taken per round (10 samples beyond it), p50_ms per window of
/// kMedianWindow consecutive queries (under a second).
constexpr int64_t kQueriesPerRound = 1000;
constexpr int64_t kMedianWindow = 100;

int64_t ArgmaxRow(const tensor::Tensor& t, int64_t row) {
  const float* r = t.RowPtr(row);
  int64_t best = 0;
  for (int64_t c = 1; c < t.cols(); ++c)
    if (r[c] > r[best]) best = c;
  return best;
}

}  // namespace

void RunTrain(const RunArgs& args, Result* result) {
  SpanRecorder& rec = Recorder();

  // The run is a series of rounds until its time is up, at least three. A
  // round sets up (generates the input graph kTrainSetupReps times, keeping
  // the last), fits, and sends kQueriesPerRound direct queries to the fitted
  // model. On a shared host the memory-bound steps of this workload run up
  // to half again as long for stretches of seconds to tens of seconds;
  // rounds spread every kind of measurement over the whole run, so that each
  // estimator below sees the quiet stretches too. Every Fit must agree with
  // the one before. A traced run traces every second round from the third
  // on: the first (cold) round is left out, and warm untraced and traced
  // Fits are compared.
  constexpr size_t kMinRounds = 3;
  std::unique_ptr<data::Dataset> ds;
  std::vector<double> setup_seconds, fit_seconds, untraced_fits, traced_fits;
  std::vector<double> query_ms;
  std::vector<int64_t> query_index;
  std::vector<int64_t> nodes;  // query order: a seeded permutation
  int64_t mismatched = 0;
  FitOutcome fit;
  const Clock::time_point start = Clock::now();
  while (fit_seconds.size() < kMinRounds ||
         SecondsSince(start) < args.seconds) {
    const auto round = static_cast<int64_t>(fit_seconds.size());
    const bool traced = args.trace && round > 0 && round % 2 == 0;
    rec.set_enabled(traced);

    for (int rep = 0; rep < kTrainSetupReps; ++rep) {
      ds.reset();
      double seconds = 0.0;
      ds = Generate(kTrainFit.base_nodes, args.seed, &seconds);
      setup_seconds.push_back(seconds);
      CheckDigest(args, kTrainFit.base_nodes, args.seed, *ds, result);
    }

    fit = FitModel(kTrainFit, args.seed, *ds, round == 0 ? nullptr : &fit,
                   result);
    if (round > 0)
      (traced ? traced_fits : untraced_fits).push_back(fit.seconds);
    fit_seconds.push_back(fit.seconds);
    ++result->attempted;
    if (!fit.finite) ++result->failed;

    // Direct queries, no scheduler and no memoized logits: each runs a full
    // forward (ForwardLogits over the session's warm artifacts), then reads
    // the node's class and its top-k explanation. That is what the first
    // query after a model update waits for; a cached read is a microsecond
    // lookup that times the host, not the model. Every class must match the
    // model's own eval logits.
    core::InferenceSession session(fit.model.get(), ds.get());
    session.Logits();
    if (nodes.empty()) {
      nodes.resize(static_cast<size_t>(ds->num_nodes()));
      std::iota(nodes.begin(), nodes.end(), 0);
      util::Rng rng(args.seed);
      rng.Shuffle(&nodes);
    }
    Scope span(rec, "core.query");
    for (int64_t q = round * kQueriesPerRound;
         q < (round + 1) * kQueriesPerRound; ++q) {
      const int64_t v = nodes[static_cast<size_t>(q) % nodes.size()];
      const Clock::time_point t0 = Clock::now();
      const tensor::Tensor fresh = session.ForwardLogits();
      const int64_t cls = ArgmaxRow(fresh, v);
      const auto explanation = session.ExplainNode(v, kTopK);
      query_ms.push_back(SecondsSince(t0) * 1e3);
      query_index.push_back(q);
      ++result->attempted;
      if (cls != ArgmaxRow(fit.logits, v) ||
          static_cast<int64_t>(explanation.neighbors.size()) > kTopK)
        ++mismatched;
    }
  }
  rec.set_enabled(args.trace);

  // setup_s is the median set-up. train_s is the fastest Fit, and p50_ms /
  // p99_ms are those of the quiet windows (QuietQuantile): contention from
  // other tenants only ever adds time.
  std::fprintf(stderr,
               "perfbench: %zu rounds; %zu set-ups, fastest %.5f s, median "
               "%.5f s; fits fastest %.4f s, median %.4f s\n",
               fit_seconds.size(), setup_seconds.size(),
               *std::min_element(setup_seconds.begin(), setup_seconds.end()),
               Median(setup_seconds),
               *std::min_element(fit_seconds.begin(), fit_seconds.end()),
               Median(fit_seconds));
  result->Set("setup_s", Median(setup_seconds), "s");
  result->Set("train_s",
              *std::min_element(fit_seconds.begin(), fit_seconds.end()), "s");
  result->Set("test_acc", fit.test_acc, "fraction");
  result->Set("explain_auc", fit.explain_auc, "fraction");

  result->failed += mismatched;
  if (mismatched > 0)
    result->Wrong(std::to_string(mismatched) +
                  " direct answers differ from the model's eval logits");
  const double p50 = QuietQuantile(query_index, query_ms, 0.5, kMedianWindow);
  const double p99 =
      QuietQuantile(query_index, query_ms, 0.99, kQueriesPerRound);
  std::fprintf(stderr,
               "perfbench: queries: quiet p50=%.5f ms (windows of %lld), "
               "quiet p99=%.5f ms (windows of %lld); whole-run p50=%.5f ms, "
               "p99=%.5f ms over %zu samples\n",
               p50, static_cast<long long>(kMedianWindow), p99,
               static_cast<long long>(kQueriesPerRound),
               Quantile(query_ms, 0.5), Quantile(query_ms, 0.99),
               query_ms.size());
  result->Set("p50_ms", p50, "ms");
  result->Set("p99_ms", p99, "ms");
  result->Set("ok_frac",
              static_cast<double>(result->attempted - result->failed) /
                  static_cast<double>(result->attempted),
              "fraction");
  result->Set("peak_rss_mb", PeakRssMb(), "MB");

  if (args.trace) {
    result->Set("trace.overhead_frac",
                Median(traced_fits) / Median(untraced_fits) - 1.0,
                "fraction");
    SetFitLayers(*fit.model, fit_seconds.back(), result);
    result->Set("data.gen_s", MedianSpanSeconds("data.MakeScaleGraph"), "s");
    ProbeLayers(*fit.model, *ds, result);
    ProbeServing(*fit.model, *ds, args.seed, kServingProbeSeconds, result);
  }
}

}  // namespace perfbench
