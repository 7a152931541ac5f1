// Million-node data-plane benchmark (DESIGN.md §16).
//
// Sweeps the synthetic scale generator across node counts, partitions each
// graph, stands up a per-shard ShardedSession next to a whole-graph
// InferenceSession, and records for every point:
//
//   - generation / partition / shard-build wall time,
//   - partition quality (edge-cut fraction, balance, halo fraction),
//   - full-epoch training time of a GCN backbone (per-epoch mean),
//   - cold and warm predict latency for both the single and the sharded
//     session (warm p50/p99 over a randomized query stream),
//   - parity_ok: whether sharded logits are bitwise-identical to the
//     whole-graph session's on a node sample — the §16 parity contract.
//
// Results go to --out (default BENCH_scale.json). The exit status is
// non-zero unless every point has parity_ok, an edge-cut fraction in
// [0, 1] and a balance >= 1. The timings are recorded, not gated: the warm
// predict is a memoized lookup, and perfbench `train` times the same
// training path in parent/change pairs. Modes:
//
//   --nodes=10000,100000,1000000   base-node counts to sweep
//   --shards=8 --seed=42 --hidden=32 --epochs=2 --warm-queries=2000
//   --smoke    one small point, tiny budgets (sanitizer CI)
//   --digest   determinism mode: generate each point twice, compare
//              DatasetDigest, print both digests, exit non-zero on mismatch.
//              No training, no sessions — this is the CI double-run.
//
// The 10M-node local run is `--nodes=10000000 --epochs=1` (a few GB of CSR;
// not exercised in CI).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/inference_session.h"
#include "core/sharded_session.h"
#include "data/scale.h"
#include "graph/partition.h"
#include "models/backbone_models.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace ses;

namespace {

struct ScalePoint {
  int64_t base_nodes = 0;
  int64_t nodes = 0;  ///< total, including appended motif nodes
  int64_t edges = 0;
  uint64_t digest = 0;
  double gen_ms = 0;
  double partition_ms = 0;
  double edge_cut_fraction = 0;
  double balance = 0;
  double halo_fraction = 0;
  double shard_build_ms = 0;
  double train_epoch_ms = 0;
  double single_cold_predict_ms = 0;
  double sharded_cold_predict_ms = 0;
  double single_warm_p50_us = 0;
  double single_warm_p99_us = 0;
  double warm_predict_p50_us = 0;  ///< sharded — the headline serving number
  double warm_predict_p99_us = 0;
  int64_t parity_sample = 0;
  bool parity_ok = false;
};

double QuantileUs(std::vector<double> us, double q) {
  if (us.empty()) return 0.0;
  std::sort(us.begin(), us.end());
  const auto rank = static_cast<size_t>(q * static_cast<double>(us.size() - 1));
  return us[rank];
}

std::vector<int64_t> ParseNodeList(const std::string& csv) {
  std::vector<int64_t> out;
  for (const std::string& piece : util::Split(csv, ','))
    if (!piece.empty()) out.push_back(std::stoll(piece));
  return out;
}

/// Uniformly random query nodes (with repeats — a serving stream, not a
/// permutation).
std::vector<int64_t> QueryStream(int64_t n, int64_t count, util::Rng* rng) {
  std::vector<int64_t> nodes(static_cast<size_t>(count));
  for (auto& v : nodes)
    v = static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(n)));
  return nodes;
}

}  // namespace

int main(int argc, char** argv) try {
  util::FlagParser flags(argc, argv);
  obs::Session obs_session(flags);
  const bool smoke = flags.GetBool("smoke", false);
  const bool digest_only = flags.GetBool("digest", false);
  const std::string out_path = flags.GetString("out", "BENCH_scale.json");
  const int64_t shards = flags.GetInt("shards", 8);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int64_t hidden = flags.GetInt("hidden", smoke ? 16 : 32);
  const int64_t epochs = flags.GetInt("epochs", smoke ? 1 : 2);
  const int64_t warm_queries =
      flags.GetInt("warm-queries", smoke ? 200 : 2000);
  const std::vector<int64_t> node_counts = ParseNodeList(flags.GetString(
      "nodes", smoke ? "10000" : "10000,100000,1000000"));
  SES_CHECK(!node_counts.empty());

  if (digest_only) {
    // CI determinism double-run: two independent generations per point must
    // agree on the full-dataset fingerprint.
    bool ok = true;
    for (int64_t n : node_counts) {
      data::ScaleGraphOptions opt;
      opt.num_nodes = n;
      opt.seed = seed;
      const uint64_t a = data::DatasetDigest(data::MakeScaleGraph(opt));
      const uint64_t b = data::DatasetDigest(data::MakeScaleGraph(opt));
      std::printf("digest nodes=%lld run1=0x%016" PRIx64
                  " run2=0x%016" PRIx64 " %s\n",
                  static_cast<long long>(n), a, b,
                  a == b ? "MATCH" : "MISMATCH");
      ok = ok && a == b;
    }
    return ok ? 0 : 1;
  }

  std::vector<ScalePoint> points;
  for (int64_t n : node_counts) {
    ScalePoint pt;
    pt.base_nodes = n;

    data::ScaleGraphOptions gen_opt;
    gen_opt.num_nodes = n;
    gen_opt.seed = seed;
    util::Timer gen_timer;
    const data::Dataset ds = data::MakeScaleGraph(gen_opt);
    pt.gen_ms = gen_timer.ElapsedSeconds() * 1e3;
    pt.nodes = ds.num_nodes();
    pt.edges = ds.graph.num_edges();
    pt.digest = data::DatasetDigest(ds);

    graph::PartitionOptions part_opt;
    part_opt.num_shards = shards;
    util::Timer part_timer;
    const graph::Partition part = graph::Partitioner(part_opt).Run(ds.graph);
    pt.partition_ms = part_timer.ElapsedSeconds() * 1e3;
    pt.edge_cut_fraction = part.edge_cut_fraction();
    pt.balance = part.balance();
    pt.halo_fraction = part.halo_fraction();
    part.ExportMetrics();

    // Full-epoch training time: fit the GCN backbone and average over
    // epochs. track_best_val off — a best-epoch parameter copy per epoch
    // would time the snapshotting, not the training.
    models::BackboneModel model("GCN");
    models::TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.hidden = hidden;
    cfg.seed = seed;
    cfg.dropout = 0.0f;
    cfg.track_best_val = false;
    util::Timer train_timer;
    model.Fit(ds, cfg);
    pt.train_epoch_ms =
        train_timer.ElapsedSeconds() * 1e3 / static_cast<double>(epochs);

    // Whole-graph session: cold predict = artifact build + first forward.
    core::InferenceSession single(model.encoder(), &ds);
    util::Timer single_cold;
    single.PredictNode(0);
    pt.single_cold_predict_ms = single_cold.ElapsedSeconds() * 1e3;

    // Sharded session. Cold predict pays one shard's artifact build.
    core::ShardedSessionOptions shard_opt;
    shard_opt.partition.num_shards = shards;
    util::Timer build_timer;
    core::ShardedSession sharded(model.encoder(), &ds, shard_opt);
    pt.shard_build_ms = build_timer.ElapsedSeconds() * 1e3;
    util::Timer sharded_cold;
    sharded.PredictNode(0);
    pt.sharded_cold_predict_ms = sharded_cold.ElapsedSeconds() * 1e3;

    // Warm both paths on every shard, then time the randomized query
    // streams request-by-request.
    util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    const std::vector<int64_t> stream =
        QueryStream(ds.num_nodes(), warm_queries, &rng);
    single.PredictMany(stream);
    sharded.PredictMany(stream);
    std::vector<double> single_us, sharded_us;
    single_us.reserve(stream.size());
    sharded_us.reserve(stream.size());
    for (int64_t node : stream) {
      util::Timer t;
      single.PredictNode(node);
      single_us.push_back(t.ElapsedSeconds() * 1e6);
    }
    for (int64_t node : stream) {
      util::Timer t;
      sharded.PredictNode(node);
      sharded_us.push_back(t.ElapsedSeconds() * 1e6);
    }
    pt.single_warm_p50_us = QuantileUs(single_us, 0.50);
    pt.single_warm_p99_us = QuantileUs(single_us, 0.99);
    pt.warm_predict_p50_us = QuantileUs(sharded_us, 0.50);
    pt.warm_predict_p99_us = QuantileUs(sharded_us, 0.99);

    // Parity: exact logit rows on a sample (bitwise, not approximate).
    const int64_t sample_n = std::min<int64_t>(ds.num_nodes(), 2048);
    const std::vector<int64_t> sample =
        QueryStream(ds.num_nodes(), sample_n, &rng);
    const tensor::Tensor a = single.GatherLogits(sample);
    const tensor::Tensor b = sharded.GatherLogits(sample);
    pt.parity_sample = sample_n;
    pt.parity_ok =
        a.rows() == b.rows() && a.cols() == b.cols() &&
        std::memcmp(a.data(), b.data(),
                    static_cast<size_t>(a.rows() * a.cols()) *
                        sizeof(float)) == 0;

    points.push_back(pt);
    std::printf(
        "nodes %9lld (edges %10lld): gen %8.1f ms | partition %7.1f ms "
        "(cut %.3f, balance %.3f, halo %.3f) | train %8.1f ms/epoch | "
        "warm p99 single %.1f us sharded %.1f us | parity %s\n",
        static_cast<long long>(pt.nodes), static_cast<long long>(pt.edges),
        pt.gen_ms, pt.partition_ms, pt.edge_cut_fraction, pt.balance,
        pt.halo_fraction, pt.train_epoch_ms, pt.single_warm_p99_us,
        pt.warm_predict_p99_us, pt.parity_ok ? "OK" : "BROKEN");
  }

  int64_t max_nodes = 0;
  bool all_parity = true;
  bool partitions_ok = true;
  for (const auto& p : points) {
    max_nodes = std::max(max_nodes, p.nodes);
    all_parity = all_parity && p.parity_ok;
    if (p.edge_cut_fraction < 0.0 || p.edge_cut_fraction > 1.0 ||
        p.balance < 1.0) {
      std::fprintf(stderr, "%lld-node point: edge cut %g or balance %g out "
                   "of range\n", static_cast<long long>(p.nodes),
                   p.edge_cut_fraction, p.balance);
      partitions_ok = false;
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"scale\",\n"
      << "  \"profile\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"shards\": " << shards << ",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"backbone\": \"GCN\",\n"
      << "  \"hidden\": " << hidden << ",\n"
      << "  \"train_epochs\": " << epochs << ",\n"
      << "  \"warm_queries\": " << warm_queries << ",\n"
      << "  \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "0x%016" PRIx64, p.digest);
    out << "    {\n"
        << "      \"base_nodes\": " << p.base_nodes << ",\n"
        << "      \"nodes\": " << p.nodes << ",\n"
        << "      \"edges\": " << p.edges << ",\n"
        << "      \"digest\": \"" << digest_hex << "\",\n"
        << "      \"gen_ms\": " << p.gen_ms << ",\n"
        << "      \"partition_ms\": " << p.partition_ms << ",\n"
        << "      \"edge_cut_fraction\": " << p.edge_cut_fraction << ",\n"
        << "      \"balance\": " << p.balance << ",\n"
        << "      \"halo_fraction\": " << p.halo_fraction << ",\n"
        << "      \"shard_build_ms\": " << p.shard_build_ms << ",\n"
        << "      \"train_epoch_ms\": " << p.train_epoch_ms << ",\n"
        << "      \"single_cold_predict_ms\": " << p.single_cold_predict_ms
        << ",\n"
        << "      \"sharded_cold_predict_ms\": " << p.sharded_cold_predict_ms
        << ",\n"
        << "      \"single_warm_p50_us\": " << p.single_warm_p50_us << ",\n"
        << "      \"single_warm_p99_us\": " << p.single_warm_p99_us << ",\n"
        << "      \"warm_predict_p50_us\": " << p.warm_predict_p50_us << ",\n"
        << "      \"warm_predict_p99_us\": " << p.warm_predict_p99_us << ",\n"
        << "      \"parity_sample\": " << p.parity_sample << ",\n"
        << "      \"parity_ok\": " << (p.parity_ok ? "true" : "false") << "\n"
        << "    }" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"max_nodes\": " << max_nodes << ",\n"
      << "  \"all_parity_ok\": " << (all_parity ? "true" : "false") << "\n"
      << "}\n";
  std::printf("results written to %s\n", out_path.c_str());
  return all_parity && partitions_ok ? 0 : 1;
} catch (const util::FlagError& e) {
  return util::FlagUsageError(argv[0], e);
}
