#include "obs/prometheus.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <shared_mutex>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ses::obs {

std::string SanitizePrometheusName(const std::string& name, bool label) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || (!label && c == ':');
    out += ok ? c : '_';
  }
  if (out.empty()) out.push_back('_');
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

void SplitLabeledName(const std::string& key, std::string* name,
                      std::string* labels) {
  const size_t brace = key.find('{');
  if (brace == std::string::npos || key.back() != '}') {
    *name = key;
    labels->clear();
    return;
  }
  *name = key.substr(0, brace);
  *labels = key.substr(brace + 1, key.size() - brace - 2);
}

std::string SanitizeLabelBody(const std::string& labels) {
  // Grammar (produced by MetricsRegistry::LabeledName):
  //   body  := pair (',' pair)*
  //   pair  := name '=' '"' escaped-value '"'
  // Only the names need sanitizing; values keep their escapes.
  std::string out;
  out.reserve(labels.size());
  size_t pos = 0;
  while (pos < labels.size()) {
    const size_t eq = labels.find('=', pos);
    if (eq == std::string::npos) break;  // malformed; keep what we have
    out += SanitizePrometheusName(labels.substr(pos, eq - pos),
                                  /*label=*/true);
    out += "=\"";
    pos = eq + 2;  // skip ="
    while (pos < labels.size()) {
      const char c = labels[pos];
      if (c == '\\' && pos + 1 < labels.size()) {
        out += c;
        out += labels[pos + 1];
        pos += 2;
        continue;
      }
      ++pos;
      if (c == '"') break;
      out += c;
    }
    out += '"';
    if (pos < labels.size() && labels[pos] == ',') {
      out += ',';
      ++pos;
    }
  }
  return out;
}

std::string FormatPrometheusValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

namespace {

/// One exposition family: a `# TYPE` header plus its sample lines, keyed and
/// emitted in sorted order so scrapes are deterministic.
struct Family {
  std::string type;
  std::vector<std::string> lines;
};

/// `name{labels}` or `name` when the body is empty, plus " value".
std::string Sample(const std::string& name, const std::string& label_body,
                   const std::string& value) {
  std::string line = name;
  if (!label_body.empty()) {
    line += '{';
    line += label_body;
    line += '}';
  }
  line += ' ';
  line += value;
  return line;
}

/// Histogram bucket line with `le` merged into any existing labels. When the
/// bucket carries an exemplar, it is appended in OpenMetrics syntax:
///   name_bucket{le="..."} 42 # {trace_id="123"} 0.0017
/// The timestamp is deliberately omitted so the last whitespace-separated
/// token of the suffix is the exemplar value (a plain float) — parsers that
/// split on the `#` see a well-formed labelset+value, and line-shape checks
/// that read the final token still find a number.
std::string BucketSample(const std::string& name,
                         const std::string& label_body, const std::string& le,
                         int64_t cumulative,
                         const Histogram::Exemplar* exemplar) {
  std::string body = label_body;
  if (!body.empty()) body += ',';
  body += "le=\"" + le + "\"";
  std::string line = Sample(name + "_bucket", body, std::to_string(cumulative));
  if (exemplar != nullptr) {
    line += " # {trace_id=\"";
    line += std::to_string(exemplar->trace_id);  // decimal, joins access log
    line += "\"} ";
    line += FormatPrometheusValue(exemplar->value);
  }
  return line;
}

template <typename Map>
std::vector<std::string> SortedKeys(const Map& map) {
  std::vector<std::string> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

void MetricsRegistry::WritePrometheus(std::ostream& out) const {
  std::shared_lock lock(mutex_);
  // Group samples by sanitized family name so each family gets exactly one
  // `# TYPE` header. Keys are visited in sorted order and lines are kept in
  // insertion order, which preserves ascending `le` within every histogram
  // series (lexicographic sorting would not: "10" < "2").
  std::map<std::string, Family> families;

  const auto family_for = [&families](const std::string& key,
                                      const char* type, std::string* labels) {
    std::string name;
    SplitLabeledName(key, &name, labels);
    name = SanitizePrometheusName(name);
    *labels = SanitizeLabelBody(*labels);
    Family& fam = families[name];
    if (fam.type.empty()) fam.type = type;
    return name;
  };

  for (const auto& key : SortedKeys(counters_)) {
    std::string labels;
    const std::string name = family_for(key, "counter", &labels);
    families[name].lines.push_back(
        Sample(name, labels, std::to_string(counters_.at(key)->Value())));
  }
  for (const auto& key : SortedKeys(gauges_)) {
    std::string labels;
    const std::string name = family_for(key, "gauge", &labels);
    families[name].lines.push_back(
        Sample(name, labels, FormatPrometheusValue(gauges_.at(key)->Value())));
  }
  for (const auto& key : SortedKeys(histograms_)) {
    std::string labels;
    const std::string name = family_for(key, "histogram", &labels);
    const Histogram& hist = *histograms_.at(key);
    Family& fam = families[name];
    // Exposition buckets are cumulative, ours are disjoint. Exemplars stay
    // per-disjoint-bucket (OpenMetrics semantics: the exemplar value must lie
    // within the bucket that exposes it).
    int64_t cumulative = 0;
    Histogram::Exemplar exemplar;
    for (size_t i = 0; i <= hist.edges().size(); ++i) {
      cumulative += hist.BucketCount(i);
      const bool has_exemplar = hist.ReadExemplar(i, &exemplar);
      const std::string le = i < hist.edges().size()
                                 ? FormatPrometheusValue(hist.edges()[i])
                                 : "+Inf";
      fam.lines.push_back(BucketSample(name, labels, le, cumulative,
                                       has_exemplar ? &exemplar : nullptr));
    }
    fam.lines.push_back(
        Sample(name + "_sum", labels, FormatPrometheusValue(hist.Sum())));
    fam.lines.push_back(
        Sample(name + "_count", labels, std::to_string(hist.Count())));
  }

  for (const auto& [name, fam] : families) {
    out << "# TYPE " << name << ' ' << fam.type << '\n';
    for (const std::string& line : fam.lines) out << line << '\n';
  }
}

void WriteMetricsExposition(std::ostream& out) {
  MetricsRegistry::Get().WritePrometheus(out);
  // Rendered here rather than registered as gauges: a scrape, and the crash
  // flush, then take no registry write lock.
  const std::vector<LabelStats> spans = AggregateSpanStats();
  if (spans.empty()) return;
  const struct {
    const char* name;
    double (*value)(const LabelStats&);
  } kSeries[] = {
      {"ses_span_count",
       [](const LabelStats& s) { return static_cast<double>(s.count); }},
      {"ses_span_total_ms",
       [](const LabelStats& s) { return s.TotalMillis(); }},
      {"ses_span_min_us", [](const LabelStats& s) { return s.min_ns / 1e3; }},
      {"ses_span_max_us", [](const LabelStats& s) { return s.max_ns / 1e3; }},
  };
  for (const auto& series : kSeries) {
    out << "# TYPE " << series.name << " gauge\n";
    for (const LabelStats& s : spans)
      out << MetricsRegistry::LabeledName(series.name, {{"label", s.label}})
          << ' ' << FormatPrometheusValue(series.value(s)) << '\n';
  }
}

}  // namespace ses::obs
