// Quickstart: train SES on a small citation-style graph, predict node
// labels, and read both kinds of built-in explanations.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Observability: the five obs::Session flags every bench binary takes too
// (obs/session.h). All optional; tracing is off and free by default.
//   --trace-out=trace.json        Chrome trace, one span per autograd op,
//                                 layer and training phase
//   --metrics-out=metrics.prom    on exit, or on a crash, the Prometheus
//                                 exposition /metrics serves: registry,
//                                 ses_kernel_* and per-span ses_span_*
//   --telemetry-out=epochs.jsonl  one JSON record per epoch
//   --access-log=access.jsonl     one JSON line per inference request
//   --metrics-port=9100           live /metrics, /healthz, /debug/slowest
//                                 (0 picks an ephemeral port), e.g.
//       watch -n1 'curl -s localhost:9100/metrics | grep ses_health'
//
// Fault tolerance:
//   ./build/examples/quickstart --checkpoint-dir=ckpt --checkpoint-every=10
//       writes rotated, CRC-checked checkpoints; kill the process at any
//       point and re-run the same command — training resumes from the last
//       checkpoint and finishes bitwise-identically to an uninterrupted run
//   --max-grad-norm=5 enables global-norm gradient clipping, and
//   SES_FAULT_SPEC (env) injects NaNs / crashes / checkpoint corruption —
//   see DESIGN.md "Fault tolerance".
#include <cstdio>

#include "core/ses_model.h"
#include "data/real_world.h"
#include "metrics/metrics.h"
#include "models/node_classifier.h"
#include "obs/obs.h"
#include "util/string_util.h"

using namespace ses;

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  obs::Session obs_session(flags);

  // 1. A dataset: a quarter-scale Cora-like citation network (graph +
  //    sparse bag-of-words features + labels + 60/20/20 split).
  data::Dataset ds = data::MakeRealWorldByName(
      "Cora", /*scale=*/flags.GetDouble("scale", 0.25), /*seed=*/7);
  std::printf("dataset: %s  nodes=%lld edges=%lld features=%lld classes=%lld\n",
              ds.name.c_str(), static_cast<long long>(ds.num_nodes()),
              static_cast<long long>(ds.graph.num_edges()),
              static_cast<long long>(ds.num_features()),
              static_cast<long long>(ds.num_classes));

  // 2. The model: SES with a GAT backbone (attention exercises the full op
  //    set — SpMM plus edge-softmax). Fit runs both phases — explainable
  //    training (encoder + mask generator, Eq. 9) and enhanced predictive
  //    learning (triplet + cross-entropy, Eq. 13).
  core::SesOptions options;
  options.backbone = "GAT";
  core::SesModel model(options);

  models::TrainConfig config;
  config.epochs = flags.GetInt("epochs", 80);
  config.hidden = 64;
  config.seed = 1;
  // Fault tolerance: periodic checkpoints (resume is automatic on re-run)
  // and optional gradient clipping.
  config.checkpoint_dir = flags.GetString("checkpoint-dir", "");
  config.checkpoint_every = flags.GetInt("checkpoint-every", 20);
  config.max_grad_norm =
      static_cast<float>(flags.GetDouble("max-grad-norm", 0.0));
  model.Fit(ds, config);

  // 3. Prediction.
  const double acc =
      models::Accuracy(model.Logits(ds), ds.labels, ds.test_idx);
  std::printf("test accuracy: %.1f%%  (phase1 %.1fs, phase2 %.1fs)\n",
              100.0 * acc, model.explainable_training_seconds(),
              model.enhanced_learning_seconds());

  // 4. Feature explanation E_feat = M_f ⊙ X: the most important features
  //    of the first test node.
  const int64_t node = ds.test_idx.front();
  const auto& mf = model.feature_mask_nnz();
  std::printf("node %lld (label %lld) — top features by mask weight:\n",
              static_cast<long long>(node),
              static_cast<long long>(ds.labels[static_cast<size_t>(node)]));
  const int64_t lo = ds.features->row_ptr[static_cast<size_t>(node)];
  const int64_t hi = ds.features->row_ptr[static_cast<size_t>(node) + 1];
  for (int64_t e = lo; e < hi && e < lo + 5; ++e)
    std::printf("  feature %lld  weight %.3f\n",
                static_cast<long long>(
                    ds.features->col_idx[static_cast<size_t>(e)]),
                mf[e]);

  // 5. Structure explanation E_sub = M̂_s ⊙ A^(k): the node's most
  //    important neighbors.
  auto edge_scores = model.EdgeScores(ds);
  std::printf("neighbors of node %lld by structure-mask weight:\n",
              static_cast<long long>(node));
  const auto& und = ds.graph.edges();
  int printed = 0;
  for (size_t i = 0; i < und.size() && printed < 5; ++i) {
    if (und[i].first != node && und[i].second != node) continue;
    const int64_t other = und[i].first == node ? und[i].second : und[i].first;
    std::printf("  neighbor %lld (label %lld)  weight %.3f\n",
                static_cast<long long>(other),
                static_cast<long long>(ds.labels[static_cast<size_t>(other)]),
                edge_scores[i]);
    ++printed;
  }

  // 6. Observability artifacts, when asked for on the command line.
  obs_session.Finish();
  // 7. Robustness counters (nonzero when checkpointing is on or faults were
  //    injected via SES_FAULT_SPEC).
  auto& reg = obs::MetricsRegistry::Get();
  std::printf(
      "robustness: ckpt_writes=%lld resume_ok=%lld resume_corrupt=%lld "
      "nan_skips=%lld rollbacks=%lld\n",
      static_cast<long long>(reg.GetCounter("ses.ckpt.writes").Value()),
      static_cast<long long>(reg.GetCounter("ses.ckpt.resume_ok").Value()),
      static_cast<long long>(reg.GetCounter("ses.ckpt.resume_corrupt").Value()),
      static_cast<long long>(reg.GetCounter("ses.train.nan_skips").Value()),
      static_cast<long long>(reg.GetCounter("ses.train.rollbacks").Value()));
  return 0;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
