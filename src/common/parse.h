// Checked number parsing for text that comes from outside the program: the
// bench flags, orion_sim_cli's flags and client specs, and saved profile
// files all parse numbers with these two functions, so one rule holds for
// them: the whole text is the number, with no leading or trailing blank. An
// unsigned value starts with a digit (no sign) and fits in 64 bits; a double
// is finite and in range. Callers turn an empty result into their own error
// message.
#ifndef SRC_COMMON_PARSE_H_
#define SRC_COMMON_PARSE_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace orion {

std::optional<std::uint64_t> ParseUint(std::string_view text);
std::optional<double> ParseDouble(std::string_view text);

}  // namespace orion

#endif  // SRC_COMMON_PARSE_H_
