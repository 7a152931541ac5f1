#include "layers.h"

#include "autograd/sparse_ops.h"
#include "autograd/variable.h"
#include "core/inference_session.h"
#include "core/sharded_session.h"
#include "graph/partition.h"
#include "util/rng.h"

namespace perfbench {

double MedianSpanSeconds(const std::string& name) {
  return Median(DurationsSeconds(Recorder().spans(), name));
}

void SetFitLayers(const core::SesModel& model, double fit_seconds,
                  Result* result) {
  const double phase1 = model.explainable_training_seconds();
  const double phase2 = model.enhanced_learning_seconds();
  result->Set("core.prep_s", fit_seconds - phase1 - phase2, "s");
  result->Set("core.phase1_s", phase1, "s");
  result->Set("core.phase2_s", phase2, "s");
}

void ProbeLayers(const core::SesModel& model, const data::Dataset& ds,
                 Result* result) {
  SpanRecorder& rec = Recorder();
  Scope probe(rec, "probe");

  // kernels: one aggregation at the model's hidden width over the workload
  // graph's message-passing support, tape-free as serving runs it.
  {
    const autograd::EdgeListPtr edges = ds.graph.DirectedEdges(true);
    const autograd::Variable weights = autograd::Variable::Constant(
        tensor::Tensor::FromVector(graph::Graph::GcnNormWeights(*edges)));
    util::Rng rng(7);
    const autograd::Variable x = autograd::Variable::Constant(
        tensor::Tensor::Randn(ds.num_nodes(), kHidden, &rng));
    autograd::InferenceGuard guard;
    autograd::SpMM(edges, weights, x);  // builds the memoized plan
    for (int i = 0; i < 21; ++i) {
      Scope span(rec, "kernels.SpMM");
      autograd::SpMM(edges, weights, x);
    }
  }
  result->Set("kernels.spmm_ms", MedianSpanSeconds("kernels.SpMM") * 1e3,
              "ms");

  // core: cold session (artifact build + first forward), the uncached
  // forward over warm artifacts, and a version-bump rebuild.
  for (int i = 0; i < 3; ++i) {
    std::unique_ptr<core::InferenceSession> session;
    {
      Scope cold(rec, "core.cold");
      {
        Scope span(rec, "core.InferenceSession()");
        session = std::make_unique<core::InferenceSession>(&model, &ds);
      }
      Scope span(rec, "core.Logits");
      session->Logits();
    }
  }
  {
    core::InferenceSession session(&model, &ds);
    session.Logits();
    for (int i = 0; i < 11; ++i) {
      Scope span(rec, "core.ForwardLogits");
      session.ForwardLogits();
    }
    for (int i = 0; i < 5; ++i) {
      Scope rebuild(rec, "core.rebuild");
      {
        Scope span(rec, "core.InvalidateGraph");
        session.InvalidateGraph();
      }
      Scope span(rec, "core.Logits");
      session.Logits();
    }
  }
  result->Set("core.cold_ms", MedianSpanSeconds("core.cold") * 1e3, "ms");
  result->Set("core.forward_ms",
              MedianSpanSeconds("core.ForwardLogits") * 1e3, "ms");
  result->Set("core.rebuild_ms", MedianSpanSeconds("core.rebuild") * 1e3,
              "ms");

  // graph + sharded core: the serve-write partition on this graph.
  core::ShardedSessionOptions options;
  options.partition.num_shards = kShards;
  double edge_cut = 0.0;
  for (int i = 0; i < 3; ++i) {
    graph::Partition partition;
    {
      Scope span(rec, "graph.Partitioner.Run");
      partition = graph::Partitioner(options.partition).Run(ds.graph);
    }
    edge_cut = partition.edge_cut_fraction();
  }
  result->Set("graph.partition_s", MedianSpanSeconds("graph.Partitioner.Run"),
              "s");
  result->Set("graph.edge_cut_frac", edge_cut, "fraction");
  std::unique_ptr<core::ShardedSession> sharded;
  for (int i = 0; i < 3; ++i) {
    sharded.reset();
    Scope span(rec, "core.ShardedSession()");
    sharded = std::make_unique<core::ShardedSession>(&model, &ds, options);
  }
  int64_t owned = 0, resident = 0;
  for (const graph::Shard& shard : sharded->partition().shards) {
    owned += static_cast<int64_t>(shard.owned.size());
    resident += static_cast<int64_t>(shard.nodes.size());
  }
  result->Set("core.resident_rows_ratio",
              static_cast<double>(resident) / static_cast<double>(owned),
              "ratio");
  result->Set("core.shard_build_s", MedianSpanSeconds("core.ShardedSession()"),
              "s");
}

}  // namespace perfbench
