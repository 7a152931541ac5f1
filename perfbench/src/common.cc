#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "data/scale.h"
#include "metrics/metrics.h"

namespace perfbench {

void Result::Wrong(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: WRONG: %s\n", why.c_str());
}

std::string Result::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    // A non-finite value is not JSON; report it as null (and it is wrong).
    if (std::isfinite(m.value))
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    else
      std::snprintf(value, sizeof(value), "null");
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

SpanRecorder& Recorder() {
  static SpanRecorder recorder;
  return recorder;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<size_t>(std::max(1.0, std::ceil(q * n)));
  return values[std::min(rank, values.size()) - 1];
}

double QuietQuantile(const std::vector<int64_t>& keys,
                     const std::vector<double>& values, double q,
                     int64_t window) {
  if (keys.empty()) return 0.0;
  const int64_t first = *std::min_element(keys.begin(), keys.end());
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto w = static_cast<size_t>((keys[i] - first) / window);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& w : windows)
    if (!w.empty()) per_window.push_back(Quantile(std::move(w), q));
  return Quantile(std::move(per_window), 0.1);
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

std::unique_ptr<data::Dataset> Generate(int64_t base_nodes, uint64_t seed,
                                        double* seconds) {
  data::ScaleGraphOptions options;
  options.num_nodes = base_nodes;
  options.seed = seed;
  const Clock::time_point start = Clock::now();
  Scope span(Recorder(), "data.MakeScaleGraph");
  auto ds = std::make_unique<data::Dataset>(data::MakeScaleGraph(options));
  *seconds = SecondsSince(start);
  return ds;
}

namespace {

/// Committed digests, keyed by (base nodes, seed). Loaded once.
const std::map<std::pair<int64_t, uint64_t>, uint64_t>& DigestTable(
    const std::string& path) {
  static const auto table = [&] {
    std::map<std::pair<int64_t, uint64_t>, uint64_t> t;
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read digest table " + path);
    long long nodes = 0;
    unsigned long long seed = 0;
    std::string hex;
    while (in >> nodes >> seed >> hex)
      t[{nodes, seed}] = std::stoull(hex, nullptr, 16);
    return t;
  }();
  return table;
}

}  // namespace

void CheckDigest(const RunArgs& args, int64_t base_nodes, uint64_t seed,
                 const data::Dataset& ds, Result* result) {
  static std::map<int64_t, uint64_t> first_seen;
  const uint64_t digest = data::DatasetDigest(ds);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
  const auto& table = DigestTable(args.digests_path);
  const auto it = table.find({base_nodes, seed});
  if (it == table.end()) {
    static bool warned = false;
    if (!warned)
      std::fprintf(stderr,
                   "perfbench: seed %llu has no committed digest; inputs are "
                   "checked for repeatability only\n",
                   static_cast<unsigned long long>(seed));
    warned = true;
  } else if (it->second != digest) {
    result->Wrong("dataset digest " + std::string(hex) + " for nodes=" +
                  std::to_string(base_nodes) + " seed=" +
                  std::to_string(seed) + " differs from the committed one");
  }
  const auto [seen, inserted] = first_seen.emplace(base_nodes, digest);
  if (!inserted && seen->second != digest)
    result->Wrong("two generations of the same input differ (digest " +
                  std::string(hex) + ")");
}

FitOutcome FitModel(const TrainSettings& settings, uint64_t seed,
                    const data::Dataset& ds, const FitOutcome* previous,
                    Result* result) {
  core::SesOptions options;
  options.backbone = "GCN";
  options.epl_epochs = settings.epl_epochs;
  models::TrainConfig config;
  config.epochs = settings.epochs;
  config.hidden = kHidden;
  config.lr = settings.lr;
  config.seed = seed;

  FitOutcome out;
  out.model = std::make_unique<core::SesModel>(options);
  const Clock::time_point start = Clock::now();
  {
    Scope span(Recorder(), "core.SesModel.Fit");
    out.model->Fit(ds, config);
  }
  out.seconds = SecondsSince(start);
  out.logits = out.model->Logits(ds);
  const float* p = out.logits.data();
  out.finite = std::all_of(p, p + out.logits.rows() * out.logits.cols(),
                           [](float v) { return std::isfinite(v); });
  if (!out.finite) result->Wrong("Fit produced non-finite logits");
  out.test_acc = models::Accuracy(out.logits, ds.labels, ds.test_idx);
  out.explain_auc =
      ses::metrics::ExplanationAuc(ds, out.model->EdgeScores(ds));
  if (previous != nullptr && (previous->test_acc != out.test_acc ||
                              previous->explain_auc != out.explain_auc))
    result->Wrong("two Fits with the same seed disagree");
  return out;
}

}  // namespace perfbench
