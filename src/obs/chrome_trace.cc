#include "obs/chrome_trace.h"

#include <cstdio>
#include <fstream>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ses::obs {

void WriteChromeTrace(std::ostream& out) {
  const std::vector<TraceEvent> events = SnapshotEvents();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":" << util::JsonQuote(ev.label);
    // Chrome expects microseconds; three decimals keep the nanosecond
    // stamps (a stream's default six significant digits would round them
    // to 10 us one second into the run).
    char stamps[80];
    std::snprintf(stamps, sizeof(stamps), ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(ev.start_ns) / 1e3,
                  static_cast<double>(ev.dur_ns) / 1e3);
    out << ",\"cat\":\"ses\",\"ph\":\"X\",\"pid\":1,\"tid\":" << ev.tid
        << stamps;
    // Spans recorded inside a RequestScope carry the request's trace-id, so
    // an access-log line can be joined to its spans in the trace viewer.
    // Kernel spans additionally carry their variant and declared work.
    const bool has_args = ev.trace_id != 0 || ev.IsKernel();
    if (has_args) {
      out << ",\"args\":{";
      bool first_arg = true;
      const auto arg = [&out, &first_arg](const char* key, auto value) {
        if (!first_arg) out << ",";
        first_arg = false;
        out << "\"" << key << "\":" << value;
      };
      if (ev.trace_id != 0) arg("trace_id", ev.trace_id);
      if (ev.IsKernel()) {
        if (ev.variant != nullptr && ev.variant[0] != '\0') {
          if (!first_arg) out << ",";
          first_arg = false;
          out << "\"variant\":" << util::JsonQuote(ev.variant);
        }
        arg("flops", ev.flops);
        arg("bytes", ev.bytes);
        if (ev.dur_ns > 0)
          arg("gflops", ev.flops / static_cast<double>(ev.dur_ns));
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
}

bool WriteChromeTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    SES_LOG_ERROR << "cannot open trace output file " << path;
    return false;
  }
  WriteChromeTrace(out);
  return true;
}

}  // namespace ses::obs
