#ifndef SES_OBS_SESSION_H_
#define SES_OBS_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/string_util.h"

namespace ses::obs {

class MetricsServer;

/// The observability front door of every main (each bench binary and
/// examples/quickstart). Built from the command line, it reads five flags:
///   --trace-out=PATH      Chrome trace-event JSON of every recorded span
///   --metrics-out=PATH    the Prometheus exposition `/metrics` serves —
///                         registry series plus span aggregates as
///                         ses_span_{count,total_ms,min_us,max_us}{label=...}
///                         — and a per-op time table on stdout
///   --telemetry-out=PATH  one JSONL record per training epoch
///   --access-log=PATH     one JSONL line per inference request, trace-id
///                         joinable against the Chrome trace
///   --metrics-port=N      live /metrics, /healthz and /debug/slowest on
///                         localhost:N for the whole run (0 = ephemeral)
/// and turns on, by one rule:
///   - span tracing for --trace-out, --metrics-out and --access-log;
///   - kernel profiling (ses.kernel.* series, kernel spans) for any flag;
///   - the ModelHealthMonitor (ses.health.* gauges, per-epoch health fields)
///     for --telemetry-out or --metrics-port;
///   - crash handlers for any flag, so a fatal signal, an exit() or an
///     injected SES_FAULT_SPEC crash still writes the artifacts.
/// The robustness counters (ses.ckpt.*, ses.train.nan_skips, rollbacks) are
/// registered up front, so even an early-crash file carries them. With no
/// flag nothing is turned on and the instrumented code costs nothing.
///
/// One session is active at a time; FlushObservability writes its
/// artifacts. Finish (or the destructor) writes them through that same
/// flush, so a crashed run leaves the same files a clean exit does.
class Session {
 public:
  explicit Session(const util::FlagParser& flags);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Port of the embedded metrics server; 0 when --metrics-port was absent.
  uint16_t metrics_port() const;

  /// Stops the server, writes the artifacts, prints the per-op table for
  /// --metrics-out, closes the sinks and turns off what the session turned
  /// on. Idempotent; the destructor calls it, so early returns still flush.
  void Finish();

 private:
  friend void FlushObservability();

  /// Writes the Chrome trace and the metrics exposition and flushes the
  /// access log. Runs only through FlushObservability, once per arming.
  void WriteArtifacts() const;

  std::string trace_path_;
  std::string metrics_path_;
  bool tracing_ = false;
  bool profiling_ = false;
  bool health_ = false;
  std::unique_ptr<MetricsServer> server_;
  bool finished_ = false;
};

/// Writes the active session's artifacts (Session::WriteArtifacts) once per
/// session: the second and later calls are no-ops, so a fault-injection
/// crash followed by an atexit hook writes each file once. Each new Session
/// re-arms it. Safe to call from a fatal-signal handler in the "best effort
/// before dying" sense: it allocates, and it skips the spans rather than
/// wait when the interrupted thread holds the trace registry's lock.
void FlushObservability();

}  // namespace ses::obs

#endif  // SES_OBS_SESSION_H_
