#ifndef SES_UTIL_STRING_UTIL_H_
#define SES_UTIL_STRING_UTIL_H_

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ses::util {

/// Splits `s` on `delim`, keeping empty pieces.
std::vector<std::string> Split(const std::string& s, char delim);

/// Joins `pieces` with `sep`.
std::string Join(const std::vector<std::string>& pieces, const std::string& sep);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// `s` as a quoted JSON string literal: `"` and `\` escaped, \b \f \n \r
/// \t by name and every other control character as \u00XX. Bytes >= 0x80
/// pass through, so UTF-8 stays UTF-8. Every JSON sink quotes through this.
std::string JsonQuote(std::string_view s);

/// A malformed command-line flag value.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Parses "--flag=value"-style command-line arguments; also recognizes bare
/// "--flag" as "true". Unrecognized positional arguments are ignored.
class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  /// Returns the flag value or `fallback` if absent.
  std::string GetString(const std::string& name, const std::string& fallback) const;
  /// Numeric getters throw FlagError, naming the flag, when a present
  /// value is not one whole in-range number ("abc", "5x", "").
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

 private:
  std::vector<std::pair<std::string, std::string>> flags_;
};

/// Prints `error` and a usage line for program `argv0` to stderr and
/// returns 2, the usage-error exit status. Mains whose flags can throw use
/// it as their handler: `int main(...) try { ... } catch (const FlagError&
/// e) { return FlagUsageError(argv[0], e); }`.
int FlagUsageError(const char* argv0, const FlagError& error);

}  // namespace ses::util

#endif  // SES_UTIL_STRING_UTIL_H_
