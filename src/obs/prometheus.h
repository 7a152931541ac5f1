#ifndef SES_OBS_PROMETHEUS_H_
#define SES_OBS_PROMETHEUS_H_

#include <string>

namespace ses::obs {

/// Helpers behind MetricsRegistry::WritePrometheus, exposed for tests.

/// Maps an arbitrary metric or label name onto the Prometheus charset: every
/// character outside [a-zA-Z0-9_:] becomes '_' ("ses.sched.batches" ->
/// "ses_sched_batches"), and a leading digit gains a '_' prefix. Label names
/// additionally may not contain ':'; pass `label = true` for those.
std::string SanitizePrometheusName(const std::string& name, bool label = false);

/// Splits a canonical registry key (`name{k="v",...}` — see
/// MetricsRegistry::LabeledName) into the bare name and the brace-enclosed
/// label body ("" when unlabeled). The label body is returned verbatim,
/// without the braces.
void SplitLabeledName(const std::string& key, std::string* name,
                      std::string* labels);

/// Rewrites the label body of a canonical key so every label *name* is
/// sanitized; values are already escaped by LabeledName and pass through.
std::string SanitizeLabelBody(const std::string& labels);

/// Formats a double the way the exposition format expects: "NaN", "+Inf",
/// "-Inf" for non-finite values, shortest round-trip decimal otherwise.
std::string FormatPrometheusValue(double v);

}  // namespace ses::obs

#endif  // SES_OBS_PROMETHEUS_H_
