#include "util/string_util.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace ses::util {

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> result;
  std::string piece;
  std::istringstream in(s);
  while (std::getline(in, piece, delim)) result.push_back(piece);
  if (!s.empty() && s.back() == delim) result.push_back("");
  return result;
}

std::string Join(const std::vector<std::string>& pieces, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i) out += sep;
    out += pieces[i];
  }
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

FlagParser::FlagParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) continue;
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq == std::string::npos) {
      flags_.emplace_back(arg, "true");
    } else {
      flags_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  for (const auto& [k, v] : flags_)
    if (k == name) return v;
  return fallback;
}

namespace {

/// Parses `value` with `parse` (strtoll / strtod) and throws FlagError
/// naming `--name` unless the whole value is one in-range number: "abc",
/// "5x" or "" must not read as 0.
template <typename T, typename Parse>
T ParseNumber(const std::string& name, const std::string& value,
              Parse parse) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const T parsed = parse(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE)
    throw FlagError("--" + name + "=" + value + ": not a valid number");
  return parsed;
}

}  // namespace

int64_t FlagParser::GetInt(const std::string& name, int64_t fallback) const {
  for (const auto& [k, v] : flags_)
    if (k == name)
      return ParseNumber<int64_t>(name, v, [](const char* s, char** end) {
        return std::strtoll(s, end, 10);
      });
  return fallback;
}

double FlagParser::GetDouble(const std::string& name, double fallback) const {
  for (const auto& [k, v] : flags_)
    if (k == name)
      return ParseNumber<double>(name, v, [](const char* s, char** end) {
        return std::strtod(s, end);
      });
  return fallback;
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  for (const auto& [k, v] : flags_)
    if (k == name) return v == "true" || v == "1" || v == "yes";
  return fallback;
}

int FlagUsageError(const char* argv0, const FlagError& error) {
  const char* slash = std::strrchr(argv0, '/');
  const char* prog = slash != nullptr ? slash + 1 : argv0;
  std::fprintf(stderr, "%s: %s\nusage: %s [--flag=value ...]\n", prog,
               error.what(), prog);
  return 2;
}

}  // namespace ses::util
