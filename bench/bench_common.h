#ifndef SES_BENCH_BENCH_COMMON_H_
#define SES_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "core/ses_model.h"
#include "data/real_world.h"
#include "data/synthetic.h"
#include "models/asdgn.h"
#include "models/backbone_models.h"
#include "models/fused_gat.h"
#include "models/protgnn.h"
#include "models/segnn.h"
#include "models/unimp.h"
#include "obs/obs.h"
#include "util/string_util.h"
#include "util/table.h"

namespace ses::bench {

/// Observability wiring shared by the bench mains. Recognized flags:
///   --trace-out=PATH      record spans, write a Chrome trace-event JSON
///   --metrics-out=PATH    record spans, print a per-op aggregate table and
///                         write span aggregates + metrics (CSV, or JSONL for
///                         a .jsonl/.json path, or Prometheus exposition for
///                         a .prom path)
///   --telemetry-out=PATH  stream one JSONL record per training epoch (also
///                         enables the ModelHealthMonitor so records carry
///                         per-layer gradient norms / update ratios)
///   --access-log=PATH     one JSONL line per inference request, trace-id
///                         joinable against the Chrome trace (implies
///                         tracing)
///   --metrics-port=N      serve live /metrics (Prometheus), /healthz and
///                         /spans on localhost:N for the whole run (0 picks
///                         an ephemeral port)
/// With none of the flags given, tracing stays disabled and the instrumented
/// code paths cost nothing. Any artifact flag also enables kernel profiling
/// (KernelScope -> ses.kernel.* series) and installs crash handlers, so a
/// fault-injection kill or fatal signal still writes the artifacts.
class ObsSession {
 public:
  explicit ObsSession(const util::FlagParser& flags)
      : trace_path_(flags.GetString("trace-out", "")),
        metrics_path_(flags.GetString("metrics-out", "")) {
    const std::string telemetry_path = flags.GetString("telemetry-out", "");
    const std::string access_log_path = flags.GetString("access-log", "");
    const int64_t metrics_port = flags.GetInt("metrics-port", -1);
    const bool any_artifact = !trace_path_.empty() || !metrics_path_.empty() ||
                              !access_log_path.empty();
    if (any_artifact) {
      obs::EnableTracing(true);
      obs::EnableKernelProfiling(true);
    } else if (metrics_port >= 0) {
      // A live /metrics endpoint without span artifacts still wants the
      // ses.kernel.* series populated.
      obs::EnableKernelProfiling(true);
    }
    if (!telemetry_path.empty()) {
      obs::Telemetry::Get().OpenJsonl(telemetry_path);
      obs::ModelHealthMonitor::Get().SetEnabled(true);
    }
    if (!access_log_path.empty()) obs::AccessLog::Get().Open(access_log_path);
    if (metrics_port >= 0) {
      server_ = std::make_unique<obs::MetricsServer>();
      if (server_->Start(static_cast<uint16_t>(metrics_port))) {
        std::printf("metrics server on http://localhost:%u/metrics\n",
                    static_cast<unsigned>(server_->port()));
        // Announce the port immediately even when stdout is a pipe or file
        // (CI polls the log for it while the benchmark is still running).
        std::fflush(stdout);
      } else {
        server_.reset();
      }
    }
    if (any_artifact) {
      obs::SetCrashArtifacts(trace_path_, metrics_path_);
      obs::InstallCrashHandlers();
    }
  }

  ~ObsSession() { Finish(); }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Port of the embedded metrics server; 0 when --metrics-port was absent.
  uint16_t metrics_port() const { return server_ ? server_->port() : 0; }

  /// Writes/prints everything the flags asked for. Idempotent; also invoked
  /// by the destructor so early returns still flush.
  void Finish() {
    if (finished_) return;
    finished_ = true;
    if (server_) {
      server_->Stop();
      server_.reset();
    }
    if (!trace_path_.empty() && obs::WriteChromeTrace(trace_path_))
      std::printf("trace written to %s (open in chrome://tracing)\n",
                  trace_path_.c_str());
    if (!metrics_path_.empty()) {
      PrintSpanAggregates();
      WriteSpanAggregates(metrics_path_);
    }
    obs::AccessLog::Get().Close();
    obs::Telemetry::Get().Close();
    obs::ModelHealthMonitor::Get().SetEnabled(false);
    // Everything is on disk; the crash path has nothing left to save.
    obs::SetCrashArtifacts("", "");
  }

 private:
  void PrintSpanAggregates() const {
    util::Table table("Per-op time breakdown (aggregated spans)");
    table.SetHeader({"Op", "Count", "Total ms", "Mean us"});
    for (const obs::LabelStats& s : obs::AggregateSpanStats()) {
      char total[32], mean[32];
      std::snprintf(total, sizeof(total), "%.3f", s.TotalMillis());
      std::snprintf(mean, sizeof(mean), "%.2f", s.MeanNs() / 1e3);
      table.AddRow({s.label, std::to_string(s.count), total, mean});
    }
    table.Print();
  }

  /// Span aggregates as CSV rows (or JSONL objects for .jsonl/.json paths),
  /// followed by any registered counters/gauges/histograms. A .prom path
  /// writes the registry alone, in Prometheus exposition format.
  static void WriteSpanAggregates(const std::string& path) {
    const bool jsonl =
        util::EndsWith(path, ".jsonl") || util::EndsWith(path, ".json");
    const bool prom = util::EndsWith(path, ".prom");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open metrics output %s\n", path.c_str());
      return;
    }
    if (prom) {
      obs::MetricsRegistry::Get().WritePrometheus(out);
      std::printf("metrics written to %s\n", path.c_str());
      return;
    }
    if (jsonl) {
      for (const obs::LabelStats& s : obs::AggregateSpanStats())
        out << "{\"kind\":\"span\",\"label\":\"" << s.label
            << "\",\"count\":" << s.count << ",\"total_ms\":" << s.TotalMillis()
            << ",\"mean_us\":" << s.MeanNs() / 1e3 << "}\n";
      obs::MetricsRegistry::Get().WriteJsonl(out);
    } else {
      out << "label,count,total_ms,mean_us,min_us,max_us\n";
      for (const obs::LabelStats& s : obs::AggregateSpanStats())
        out << s.label << "," << s.count << "," << s.TotalMillis() << ","
            << s.MeanNs() / 1e3 << "," << s.min_ns / 1e3 << ","
            << s.max_ns / 1e3 << "\n";
    }
    std::printf("per-op metrics written to %s\n", path.c_str());
  }

  std::string trace_path_;
  std::string metrics_path_;
  std::unique_ptr<obs::MetricsServer> server_;
  bool finished_ = false;
};

/// Resource profile for a benchmark run. The default ("fast") profile scales
/// the real-world stand-ins and epoch counts to the 2-core CPU budget this
/// harness runs under; `--full` restores paper-scale settings. Either way
/// every code path of every experiment executes — only sizes change.
/// EXPERIMENTS.md records which profile produced the committed outputs.
struct Profile {
  bool full = false;
  double real_scale = 0.35;       ///< fraction of the real dataset size
  int64_t epochs = 50;            ///< backbone / SES explainable epochs
  int64_t hidden = 64;            ///< hidden width (paper: 128)
  int64_t seeds = 2;              ///< repetitions for mean±std cells
  int64_t explain_nodes_cap = 80; ///< nodes processed by per-node explainers
  float lr = 0.003f;              ///< paper's learning rate
  float dropout = 0.3f;

  static Profile FromFlags(const util::FlagParser& flags) {
    Profile p;
    p.full = flags.GetBool("full", false);
    if (p.full) {
      p.real_scale = 1.0;
      p.epochs = 300;
      p.hidden = 128;
      p.seeds = 5;
      p.explain_nodes_cap = 0;  // all nodes
    }
    p.real_scale = flags.GetDouble("scale", p.real_scale);
    p.epochs = flags.GetInt("epochs", p.epochs);
    p.hidden = flags.GetInt("hidden", p.hidden);
    p.seeds = flags.GetInt("seeds", p.seeds);
    p.explain_nodes_cap = flags.GetInt("explain_nodes", p.explain_nodes_cap);
    return p;
  }

  models::TrainConfig MakeTrainConfig(uint64_t seed) const {
    models::TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.hidden = hidden;
    cfg.lr = lr;
    cfg.dropout = dropout;
    cfg.seed = seed;
    return cfg;
  }

  std::string Describe() const {
    return std::string(full ? "FULL" : "FAST") +
           " profile: scale=" + std::to_string(real_scale) +
           " epochs=" + std::to_string(epochs) +
           " hidden=" + std::to_string(hidden) +
           " seeds=" + std::to_string(seeds);
  }
};

/// Factory over the Table-3 model zoo.
inline std::unique_ptr<models::NodeClassifier> MakeModel(
    const std::string& name) {
  if (name == "GCN") return std::make_unique<models::BackboneModel>("GCN");
  if (name == "GAT") return std::make_unique<models::BackboneModel>("GAT");
  if (name == "UniMP") return std::make_unique<models::UniMpModel>();
  if (name == "FusedGAT") return std::make_unique<models::FusedGatModel>();
  if (name == "ASDGN") return std::make_unique<models::AsdgnModel>();
  if (name == "SEGNN") return std::make_unique<models::SegnnModel>();
  if (name == "ProtGNN") return std::make_unique<models::ProtGnnModel>();
  if (name == "SES (GCN)") {
    core::SesOptions opt;
    opt.backbone = "GCN";
    return std::make_unique<core::SesModel>(opt);
  }
  if (name == "SES (GAT)") {
    core::SesOptions opt;
    opt.backbone = "GAT";
    return std::make_unique<core::SesModel>(opt);
  }
  return nullptr;
}

inline std::string ArtifactDir() { return "bench_artifacts"; }

}  // namespace ses::bench

#endif  // SES_BENCH_BENCH_COMMON_H_
