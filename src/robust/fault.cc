#include "robust/fault.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "obs/session.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ses::robust {

namespace {

[[noreturn]] void BadSpec(const std::string& spec, const std::string& why) {
  throw std::runtime_error("SES_FAULT_SPEC '" + spec + "': " + why);
}

/// Every numeric key (epoch, step, ms, us) is a count or a duration, so a
/// negative value is malformed rather than "unset".
int64_t ParseNonNegative(const std::string& spec, const std::string& value) {
  try {
    size_t used = 0;
    const int64_t v = std::stoll(value, &used);
    if (used != value.size()) BadSpec(spec, "bad integer '" + value + "'");
    if (v < 0) BadSpec(spec, "negative value '" + value + "'");
    return v;
  } catch (const std::logic_error&) {
    BadSpec(spec, "bad integer '" + value + "'");
  }
}

}  // namespace

FaultPlan FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& piece : util::Split(spec, ';')) {
    if (piece.empty()) continue;
    Fault fault;
    const size_t colon = piece.find(':');
    fault.kind = piece.substr(0, colon);
    const bool is_training_kind =
        fault.kind == "nan_grad" || fault.kind == "nan_loss" ||
        fault.kind == "crash" || fault.kind == "corrupt_ckpt";
    const bool is_serving_kind =
        fault.kind == "worker_stall" || fault.kind == "slow_forward" ||
        fault.kind == "poison_request" || fault.kind == "serve_throw" ||
        fault.kind == "serve_delay";
    if (!is_training_kind && !is_serving_kind)
      BadSpec(spec, "unknown fault kind '" + fault.kind + "'");
    if (colon != std::string::npos) {
      for (const std::string& kv : util::Split(piece.substr(colon + 1), ',')) {
        const size_t eq = kv.find('=');
        if (eq == std::string::npos)
          BadSpec(spec, "expected key=value, got '" + kv + "'");
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        if (key == "phase") {
          fault.phase = value;
        } else if (key == "epoch") {
          fault.epoch = ParseNonNegative(spec, value);
        } else if (key == "step") {
          fault.step = ParseNonNegative(spec, value);
        } else if (key == "mode") {
          fault.mode = value;
        } else if (key == "ms") {
          fault.ms = ParseNonNegative(spec, value);
        } else if (key == "us") {
          fault.us = ParseNonNegative(spec, value);
        } else {
          BadSpec(spec, "unknown key '" + key + "'");
        }
      }
    }
    const bool wants_epoch =
        fault.kind == "crash" || fault.kind == "corrupt_ckpt";
    if (wants_epoch && fault.epoch < 0)
      BadSpec(spec, fault.kind + " needs epoch=<n>");
    if (fault.kind == "serve_delay") {
      if (fault.us <= 0) BadSpec(spec, "serve_delay needs us=<n> (positive)");
      if (fault.step >= 0)
        BadSpec(spec, "serve_delay is persistent and takes no step=");
    } else if (!wants_epoch && fault.step < 0) {
      BadSpec(spec, fault.kind + " needs step=<n>");
    }
    if (fault.kind == "crash" && !fault.mode.empty() &&
        fault.mode != "exit" && fault.mode != "throw")
      BadSpec(spec, "crash mode must be exit or throw");
    if (fault.kind == "corrupt_ckpt" && !fault.mode.empty() &&
        fault.mode != "flip" && fault.mode != "truncate")
      BadSpec(spec, "corrupt_ckpt mode must be flip or truncate");
    plan.faults_.push_back(std::move(fault));
  }
  return plan;
}

FaultPlan FaultPlan::FromEnv() {
  const char* spec = std::getenv("SES_FAULT_SPEC");
  if (spec == nullptr || spec[0] == '\0') return {};
  return Parse(spec);
}

Fault* FaultPlan::Find(const std::string& kind, const std::string& phase,
                       int64_t epoch, int64_t step) {
  for (Fault& f : faults_) {
    if (f.fired || f.kind != kind) continue;
    if (!f.phase.empty() && f.phase != phase) continue;
    if (f.epoch >= 0 && f.epoch != epoch) continue;
    if (f.step >= 0 && f.step != step) continue;
    f.fired = true;
    return &f;
  }
  return nullptr;
}

void FaultPlan::MaybeCrash(const std::string& phase, int64_t epoch) {
  Fault* f = Find("crash", phase, epoch, -1);
  if (f == nullptr) return;
  SES_LOG_WARN << "fault injection: simulated crash at " << phase << " epoch "
               << epoch;
  if (f->mode == "throw")
    throw SimulatedCrash("injected crash at " + phase + " epoch " +
                         std::to_string(epoch));
  // _Exit skips atexit hooks and signal handlers by design (that is the
  // point of the simulated hard kill), so flush the observability artifacts
  // here — a crashed run must still leave its trace, metrics and access log.
  obs::FlushObservability();
  std::_Exit(kCrashExitCode);
}

bool FaultPlan::TakeNanGrad(const std::string& phase, int64_t step) {
  if (Find("nan_grad", phase, -1, step) == nullptr) return false;
  SES_LOG_WARN << "fault injection: NaN gradient at " << phase << " step "
               << step;
  return true;
}

bool FaultPlan::TakeNanLoss(const std::string& phase, int64_t step) {
  if (Find("nan_loss", phase, -1, step) == nullptr) return false;
  SES_LOG_WARN << "fault injection: NaN loss at " << phase << " step " << step;
  return true;
}

namespace {
/// Stall faults default to 10 ms when the spec omits `ms=` — long enough to
/// observe, short enough to keep fault-matrix tests fast.
constexpr int64_t kDefaultStallMs = 10;
}  // namespace

bool FaultPlan::TakeWorkerStall(int64_t batch_seq, int64_t* ms) {
  Fault* f = Find("worker_stall", "", -1, batch_seq);
  if (f == nullptr) return false;
  *ms = f->ms >= 0 ? f->ms : kDefaultStallMs;
  SES_LOG_WARN << "fault injection: worker stall " << *ms << " ms before batch "
               << batch_seq;
  return true;
}

bool FaultPlan::TakeSlowForward(int64_t batch_seq, int64_t* ms) {
  Fault* f = Find("slow_forward", "", -1, batch_seq);
  if (f == nullptr) return false;
  *ms = f->ms >= 0 ? f->ms : kDefaultStallMs;
  SES_LOG_WARN << "fault injection: slow forward " << *ms << " ms in batch "
               << batch_seq;
  return true;
}

bool FaultPlan::TakePoisonRequest(int64_t request_seq) {
  if (Find("poison_request", "", -1, request_seq) == nullptr) return false;
  SES_LOG_WARN << "fault injection: poisoned request " << request_seq;
  return true;
}

bool FaultPlan::TakeServeThrow(int64_t batch_seq) {
  if (Find("serve_throw", "", -1, batch_seq) == nullptr) return false;
  SES_LOG_WARN << "fault injection: throwing in batch " << batch_seq;
  return true;
}

int64_t FaultPlan::ServeDelayUs() const {
  for (const Fault& f : faults_)
    if (f.kind == "serve_delay") return f.us;
  return 0;
}

void FaultPlan::MaybeCorruptCheckpoint(const std::string& phase, int64_t epoch,
                                       const std::string& path) {
  Fault* f = Find("corrupt_ckpt", phase, epoch, -1);
  if (f == nullptr || path.empty()) return;
  SES_LOG_WARN << "fault injection: corrupting checkpoint " << path
               << " (mode " << (f->mode.empty() ? "flip" : f->mode) << ")";
  CorruptFile(path, f->mode.empty() ? "flip" : f->mode);
}

void CorruptFile(const std::string& path, const std::string& mode) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec || size == 0) return;
  if (mode == "truncate") {
    fs::resize_file(path, size / 2, ec);
    return;
  }
  // Flip one byte inside the payload (past the 24-byte header when there is
  // one) at a deterministic offset, so the CRC check must catch it.
  const uint64_t offset = size > 32 ? 24 + (size - 24) / 2 : size - 1;
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

}  // namespace ses::robust
