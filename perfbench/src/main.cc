// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload train|serve-write --seed N --seconds S
//             --trace 0|1 --digests perfbench/digests.tsv [--trace-dir DIR]
//
// Prints progress on stderr and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics when
// --trace 0, the per-layer metrics when --trace 1 (the traced run also
// writes its spans to DIR/<workload>-<seed>.spans.json).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common.h"
#include "serve.h"
#include "train.h"

namespace {

using perfbench::Result;
using perfbench::RunArgs;

const char* const kEndToEnd[] = {"setup_s",   "peak_rss_mb", "ok_frac",
                                 "train_s",   "test_acc",    "explain_auc",
                                 "p50_ms",    "p99_ms"};
const char* const kPerLayer[] = {
    "data.gen_s",           "core.prep_s",
    "core.phase1_s",        "core.phase2_s",
    "kernels.spmm_ms",      "core.cold_ms",
    "core.forward_ms",      "core.rebuild_ms",
    "core.cache_hit_frac",  "graph.partition_s",
    "graph.edge_cut_frac",  "core.shard_build_s",
    "core.resident_rows_ratio", "serve.submit_us_p99",
    "serve.avg_batch",      "serve.deadline_flush_frac",
    "serve.shed_frac",      "serve.expired_frac",
    "serve.degraded_frac",  "serve.predict_p99_ms",
    "serve.explain_p99_ms", "gen.late_p99_ms",
    "trace.overhead_frac"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train|serve-write --seed N --seconds S --trace 0|1 "
               "--digests PATH [--trace-dir DIR]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
        have_seconds = args->seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args->trace = value == "1";
        have_trace = true;
      } else if (flag == "--digests") {
        args->digests_path = value;
      } else if (flag == "--trace-dir") {
        args->trace_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         !args->workload.empty() && !args->digests_path.empty();
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
#ifdef _OPENMP
  // The thread budget assumes single-threaded kernels; libgomp reads the
  // team size from the environment before main, so it cannot be set here.
  if (omp_get_max_threads() != 1)
    return Usage("run with OMP_NUM_THREADS=1 (run.py sets it)");
#endif
  // No synthetic faults or forced kernel variants: the scheduler would load
  // a fault plan from the environment, the kernels a forced variant.
  unsetenv("SES_FAULT_SPEC");
  if (std::getenv("SES_KERNEL_VARIANT") || std::getenv("SES_KERNEL_AUTOTUNE"))
    return Usage("unset SES_KERNEL_VARIANT and SES_KERNEL_AUTOTUNE");

  Result result;
  try {
    if (args.workload == "train")
      perfbench::RunTrain(args, &result);
    else if (args.workload == "serve-write")
      perfbench::RunServeWrite(args, &result);
    else
      return Usage("unknown workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: failed: %s\n", e.what());
    return 1;
  }

  if (args.trace && !args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + args.workload + "-" +
                             std::to_string(args.seed) + ".spans.json";
    if (!perfbench::Recorder().WriteJson(path))
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }

  Result out;
  out.correct = result.correct;
  out.attempted = result.attempted;
  out.failed = result.failed;
  const auto emit = [&](const char* const* first, const char* const* last) {
    for (const char* const* it = first; it != last; ++it) {
      const auto found = result.metrics.find(*it);
      if (found == result.metrics.end()) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n", *it);
        return false;
      }
      out.metrics[*it] = found->second;
    }
    return true;
  };
  const bool complete = args.trace
                            ? emit(std::begin(kPerLayer), std::end(kPerLayer))
                            : emit(std::begin(kEndToEnd), std::end(kEndToEnd));
  if (!complete) return 1;
  std::printf("%s\n", out.Json().c_str());
  return 0;
}
