#include "src/common/parse.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

namespace orion {

std::optional<std::uint64_t> ParseUint(std::string_view text) {
  if (text.empty() || text.front() < '0' || text.front() > '9') {
    return std::nullopt;
  }
  const std::string copy(text);  // strtoull reads up to a NUL
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(copy.c_str(), &end, 10);
  if (end != copy.c_str() + copy.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> ParseDouble(std::string_view text) {
  // strtod skips leading white space; the rule does not.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front())) != 0) {
    return std::nullopt;
  }
  const std::string copy(text);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || errno == ERANGE || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace orion
