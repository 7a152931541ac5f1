#ifndef SES_OBS_OBS_H_
#define SES_OBS_OBS_H_

/// ses_obs — the observability layer.
///
/// One include gives the whole surface:
///  - Session: the front door of every main — five flags (--trace-out,
///    --metrics-out, --telemetry-out, --access-log, --metrics-port), one
///    rule for what each turns on, and one artifact writer shared by the
///    clean exit and the crash flush (session.h);
///  - SES_TRACE_SPAN(label): RAII hierarchical spans (trace.h), near-zero
///    overhead while tracing is disabled (the default);
///  - WriteChromeTrace(path): chrome://tracing export (chrome_trace.h);
///  - MetricsRegistry: named counters / gauges / histograms, optionally
///    labeled; WriteMetricsExposition is the one metrics format — the
///    Prometheus text `/metrics` serves and `--metrics-out` writes, span
///    aggregates included as ses_span_* (metrics.h);
///  - MetricsServer: embedded HTTP endpoint serving /metrics, /healthz and
///    /debug/slowest for live scraping (metrics_server.h);
///  - RequestScope / AccessLog: request-scoped trace-ids propagated into
///    spans, one JSONL access-log line per request (request.h);
///  - ModelHealthMonitor: per-epoch gradient norms, update ratios, dead-unit
///    fractions and attention entropy as ses.health.* (model_health.h);
///  - Telemetry: per-epoch training records to JSONL or a callback
///    (telemetry.h);
///  - KernelScope: clock-only per-kernel accounting — calls, wall time,
///    declared GFLOP/s and arithmetic intensity as ses.kernel.* and kernel
///    spans in the trace (kernel_scope.h);
///  - FlightRecorder: top-K slowest fully-attributed requests per rolling
///    window, served at /debug/slowest and auto-dumped when a request's
///    queue wait exceeds a budget (flight_recorder.h).

#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/kernel_scope.h"
#include "obs/metrics.h"
#include "obs/metrics_server.h"
#include "obs/model_health.h"
#include "obs/request.h"
#include "obs/session.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

#endif  // SES_OBS_OBS_H_
