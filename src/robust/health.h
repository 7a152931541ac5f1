#ifndef SES_ROBUST_HEALTH_H_
#define SES_ROBUST_HEALTH_H_

#include <cstdint>

namespace ses::robust {

/// Per-step numerical guard for training loops. Feed it the step's loss and
/// global gradient norm; it classifies the step:
///   kProceed  — both finite, apply the optimizer step
///   kSkip     — NaN/Inf seen, zero the gradients and skip the update
///   kRollback — `max_bad_steps` consecutive poisoned steps; restore the
///               last good checkpoint (the caller lowers the LR; callers
///               without a checkpoint fall back to skipping)
/// Skips are counted in `ses.train.nan_skips`, acknowledged rollbacks in
/// `ses.train.rollbacks`.
class HealthMonitor {
 public:
  enum class Action { kProceed, kSkip, kRollback };

  /// `max_bad_steps`: consecutive poisoned steps tolerated before a
  /// rollback is requested.
  explicit HealthMonitor(int64_t max_bad_steps);

  Action Observe(double loss, double grad_norm);

  /// Callers invoke this after actually performing a rollback; it resets
  /// the bad-step streak and bumps the rollback counter.
  void NoteRollback();

  int64_t consecutive_bad() const { return consecutive_bad_; }

 private:
  int64_t max_bad_steps_;
  int64_t consecutive_bad_ = 0;
};

}  // namespace ses::robust

#endif  // SES_ROBUST_HEALTH_H_
