#include "obs/session.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "obs/chrome_trace.h"
#include "obs/kernel_scope.h"
#include "obs/metrics.h"
#include "obs/metrics_server.h"
#include "obs/model_health.h"
#include "obs/request.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/table.h"

namespace ses::obs {

namespace {

std::mutex g_active_mutex;
const Session* g_active = nullptr;  // guarded by g_active_mutex
std::atomic<bool> g_flushed{true};  // nothing to flush until a session arms it

void FatalSignalHandler(int signum) {
  FlushObservability();
  // Restore the default disposition and re-raise, so the process still dies
  // with the original signal (core dumps, wait-status, CI assertions intact).
  std::signal(signum, SIG_DFL);
  std::raise(signum);
}

/// An atexit hook and fatal-signal handlers (SEGV/ABRT/BUS/FPE/ILL/TERM)
/// that flush before the process dies. Installed once per process.
void InstallCrashHandlers() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true, std::memory_order_relaxed)) return;
  std::atexit(FlushObservability);
  for (const int signum : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL, SIGTERM})
    std::signal(signum, FatalSignalHandler);
}

void PrintSpanTable() {
  util::Table table("Per-op time breakdown (aggregated spans)");
  table.SetHeader({"Op", "Count", "Total ms", "Mean us"});
  for (const LabelStats& s : AggregateSpanStats())
    table.AddRow({s.label, std::to_string(s.count),
                  util::Table::Num(s.TotalMillis(), 3),
                  util::Table::Num(s.MeanNs() / 1e3, 2)});
  table.Print();
}

}  // namespace

Session::Session(const util::FlagParser& flags)
    : trace_path_(flags.GetString("trace-out", "")),
      metrics_path_(flags.GetString("metrics-out", "")) {
  const std::string telemetry_path = flags.GetString("telemetry-out", "");
  const std::string access_log_path = flags.GetString("access-log", "");
  const int64_t port = flags.GetInt("metrics-port", -1);

  tracing_ = !trace_path_.empty() || !metrics_path_.empty() ||
             !access_log_path.empty();
  profiling_ = tracing_ || !telemetry_path.empty() || port >= 0;
  health_ = !telemetry_path.empty() || port >= 0;
  if (tracing_) EnableTracing(true);
  if (profiling_) EnableKernelProfiling(true);
  if (health_) ModelHealthMonitor::Get().SetEnabled(true);

  auto& registry = MetricsRegistry::Get();
  for (const char* counter :
       {"ses.ckpt.writes", "ses.ckpt.resume_ok", "ses.ckpt.resume_corrupt",
        "ses.train.nan_skips", "ses.train.rollbacks"})
    registry.GetCounter(counter);

  if (!telemetry_path.empty()) Telemetry::Get().OpenJsonl(telemetry_path);
  if (!access_log_path.empty()) AccessLog::Get().Open(access_log_path);
  if (port >= 0) {
    server_ = std::make_unique<MetricsServer>();
    if (server_->Start(static_cast<uint16_t>(port))) {
      std::printf("metrics server on http://localhost:%u/metrics\n",
                  static_cast<unsigned>(server_->port()));
      // Announce the port now even when stdout is a pipe or a file: CI
      // polls the log for it while the run is still going.
      std::fflush(stdout);
    } else {
      server_.reset();
    }
  }
  if (profiling_) {
    {
      std::lock_guard<std::mutex> lock(g_active_mutex);
      g_active = this;
    }
    g_flushed.store(false, std::memory_order_relaxed);
    InstallCrashHandlers();
  }
}

Session::~Session() { Finish(); }

uint16_t Session::metrics_port() const {
  return server_ ? server_->port() : 0;
}

void Session::WriteArtifacts() const {
  if (!trace_path_.empty() && WriteChromeTrace(trace_path_))
    std::printf("trace written to %s (open in chrome://tracing)\n",
                trace_path_.c_str());
  if (!metrics_path_.empty()) {
    std::ofstream out(metrics_path_);
    if (out) {
      WriteMetricsExposition(out);
      std::printf("metrics written to %s\n", metrics_path_.c_str());
    } else {
      SES_LOG_ERROR << "cannot open metrics output file " << metrics_path_;
    }
  }
  AccessLog::Get().Flush();
}

void Session::Finish() {
  if (finished_) return;
  finished_ = true;
  if (server_) {
    server_->Stop();
    server_.reset();
  }
  if (profiling_) {  // any flag: this session is the active one
    FlushObservability();
    std::lock_guard<std::mutex> lock(g_active_mutex);
    if (g_active == this) g_active = nullptr;
  }
  if (!metrics_path_.empty()) PrintSpanTable();
  AccessLog::Get().Close();
  Telemetry::Get().Close();
  if (health_) ModelHealthMonitor::Get().SetEnabled(false);
  if (profiling_) EnableKernelProfiling(false);
  if (tracing_) EnableTracing(false);
}

void FlushObservability() {
  if (g_flushed.exchange(true, std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(g_active_mutex);
  if (g_active != nullptr) g_active->WriteArtifacts();
}

}  // namespace ses::obs
