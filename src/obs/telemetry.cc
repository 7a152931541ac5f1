#include "obs/telemetry.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"

namespace ses::obs {

Telemetry& Telemetry::Get() {
  static Telemetry* telemetry = new Telemetry();
  return *telemetry;
}

void Telemetry::SetCallback(EpochCallback cb) {
  std::lock_guard<std::mutex> lock(mutex_);
  callback_ = std::move(cb);
  active_.store(static_cast<bool>(callback_), std::memory_order_relaxed);
}

bool Telemetry::OpenJsonl(const std::string& path) {
  auto out = std::make_shared<std::ofstream>(path);
  if (!*out) {
    SES_LOG_ERROR << "cannot open telemetry output file " << path;
    return false;
  }
  SetCallback([out](const EpochRecord& record) {
    *out << EpochRecordToJson(record) << "\n";
    out->flush();  // records must survive a crash mid-training
  });
  return true;
}

void Telemetry::Close() { SetCallback(nullptr); }

void Telemetry::EmitSlow(const EpochRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (callback_) callback_(record);
}

namespace {

/// NaN/Inf are not valid JSON literals — a poisoned-step record must still
/// parse, so non-finite numbers serialize as null.
void AppendNumber(std::ostringstream& out, double v) {
  if (std::isfinite(v))
    out << v;
  else
    out << "null";
}

/// Per-parameter health maps serialize as a JSON object keyed by parameter
/// name.
void AppendNamedValues(
    std::ostringstream& out,
    const std::vector<std::pair<std::string, double>>& values) {
  out << "{";
  bool first = true;
  for (const auto& [name, v] : values) {
    if (!first) out << ",";
    first = false;
    out << util::JsonQuote(name) << ":";
    AppendNumber(out, v);
  }
  out << "}";
}

}  // namespace

std::string EpochRecordToJson(const EpochRecord& record) {
  std::ostringstream out;
  out << "{\"model\":" << util::JsonQuote(record.model)
      << ",\"phase\":" << util::JsonQuote(record.phase)
      << ",\"epoch\":" << record.epoch << ",\"loss\":";
  AppendNumber(out, record.loss);
  out << ",\"grad_norm\":";
  AppendNumber(out, record.grad_norm);
  out << ",\"epoch_seconds\":";
  AppendNumber(out, record.epoch_seconds);
  out << ",\"val_metric\":";
  AppendNumber(out, record.val_metric);
  out << ",\"layer_grad_norms\":";
  AppendNamedValues(out, record.layer_grad_norms);
  out << ",\"update_ratios\":";
  AppendNamedValues(out, record.update_ratios);
  out << ",\"dead_fraction\":";
  AppendNumber(out, record.dead_fraction < 0.0
                        ? std::numeric_limits<double>::quiet_NaN()
                        : record.dead_fraction);
  out << ",\"attn_entropy\":";
  AppendNumber(out, record.attn_entropy < 0.0
                        ? std::numeric_limits<double>::quiet_NaN()
                        : record.attn_entropy);
  out << "}";
  return out.str();
}

}  // namespace ses::obs
