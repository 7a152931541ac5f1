#ifndef SES_UTIL_STRING_UTIL_H_
#define SES_UTIL_STRING_UTIL_H_

#include <string>
#include <vector>

namespace ses::util {

/// Splits `s` on `delim`, keeping empty pieces.
std::vector<std::string> Split(const std::string& s, char delim);

/// Joins `pieces` with `sep`.
std::string Join(const std::vector<std::string>& pieces, const std::string& sep);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Parses "--flag=value"-style command-line arguments; also recognizes bare
/// "--flag" as "true". Unrecognized positional arguments are ignored.
class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  /// Returns the flag value or `fallback` if absent.
  std::string GetString(const std::string& name, const std::string& fallback) const;
  /// Numeric getters throw std::invalid_argument, naming the flag, when a
  /// present value is not one whole in-range number ("abc", "5x", "").
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

 private:
  std::vector<std::pair<std::string, std::string>> flags_;
};

}  // namespace ses::util

#endif  // SES_UTIL_STRING_UTIL_H_
