#ifndef SES_SERVE_STATUS_H_
#define SES_SERVE_STATUS_H_

#include <cstdint>

namespace ses::serve {

/// Typed outcome of a scheduled request. Every future the scheduler hands
/// out resolves with exactly one of these — rejected, expired and faulted
/// requests get a code, never a hang.
enum class StatusCode : uint8_t {
  kOk = 0,
  kDeadlineExceeded,  ///< expired in queue or mid-flight
  kOverloaded,        ///< shed at the queue bound; retry after the hint
  kShuttingDown,      ///< submitted after Stop() began
  kInternal,          ///< execution failed (poisoned request, thrown fault)
};

const char* StatusCodeName(StatusCode code);

/// Status plus the client-facing retry contract: on kOverloaded,
/// `retry_after_us` is the server's minimum-backoff hint (see retry.h for
/// the client side). 0 on every other code.
struct Status {
  StatusCode code = StatusCode::kOk;
  int64_t retry_after_us = 0;

  bool ok() const { return code == StatusCode::kOk; }
  const char* name() const { return StatusCodeName(code); }

  static Status Ok() { return {}; }
  static Status Overloaded(int64_t retry_after_us) {
    return {StatusCode::kOverloaded, retry_after_us};
  }
  static Status DeadlineExceeded() { return {StatusCode::kDeadlineExceeded}; }
  static Status ShuttingDown() { return {StatusCode::kShuttingDown}; }
  static Status Internal() { return {StatusCode::kInternal}; }
};

inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kOverloaded: return "overloaded";
    case StatusCode::kShuttingDown: return "shutting_down";
    case StatusCode::kInternal: return "internal";
  }
  return "unknown";
}

/// Public op kinds. Admission sheds Explain and LogitsRow (recomputable, off
/// the interactive path) at half the queue bound and Predict only at the
/// bound (SchedulerOptions::max_queued_requests).
enum class OpKind : uint8_t { kPredict = 0, kLogitsRow = 1, kExplain = 2 };

inline const char* OpKindName(OpKind op) {
  switch (op) {
    case OpKind::kPredict: return "predict";
    case OpKind::kLogitsRow: return "logits_row";
    case OpKind::kExplain: return "explain";
  }
  return "unknown";
}

}  // namespace ses::serve

#endif  // SES_SERVE_STATUS_H_
