#include "robust/health.h"

#include <cmath>

#include "obs/metrics.h"
#include "util/logging.h"

namespace ses::robust {

namespace {

obs::Counter& NanSkipsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Get().GetCounter("ses.train.nan_skips");
  return c;
}

obs::Counter& RollbacksCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Get().GetCounter("ses.train.rollbacks");
  return c;
}

}  // namespace

HealthMonitor::HealthMonitor(int64_t max_bad_steps)
    : max_bad_steps_(max_bad_steps) {}

HealthMonitor::Action HealthMonitor::Observe(double loss, double grad_norm) {
  if (std::isfinite(loss) && std::isfinite(grad_norm)) {
    consecutive_bad_ = 0;
    return Action::kProceed;
  }
  ++consecutive_bad_;
  NanSkipsCounter().Add();
  SES_LOG_WARN << "numerical guard: non-finite "
               << (std::isfinite(loss) ? "grad norm" : "loss")
               << " (streak " << consecutive_bad_ << "/"
               << max_bad_steps_ << "), skipping optimizer step";
  if (consecutive_bad_ >= max_bad_steps_) return Action::kRollback;
  return Action::kSkip;
}

void HealthMonitor::NoteRollback() {
  consecutive_bad_ = 0;
  RollbacksCounter().Add();
}

}  // namespace ses::robust
