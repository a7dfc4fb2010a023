#pragma once

#include <charconv>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <system_error>

#include "sim/time.h"

namespace ppsim::obs {

/// The one reader of the `<keyword> key=value ... # comment` line format
/// shared by fault plans (docs/FAULTS.md) and health rule files
/// (docs/OBSERVABILITY.md). `#` starts a comment and blank lines are
/// skipped. Every other line must start with `keyword`, followed by
/// whitespace-separated `key=value` tokens with a non-empty key.
///
/// `on_pair` runs for each token and `on_line_end` once after each
/// directive line; each returns "" or an error. Returns "" or the first
/// error, prefixed "<what> line N: ".
std::string read_directives(
    std::istream& in, std::string_view what, std::string_view keyword,
    const std::function<std::string(std::string_view key,
                                     std::string_view value)>& on_pair,
    const std::function<std::string()>& on_line_end);

/// Value parsers: the whole value must parse, and numbers must be finite.
bool parse_directive_double(std::string_view s, double* out);
bool parse_directive_int(std::string_view s, int* out);

/// A base-10 integer in T's range (std::from_chars): an empty value, a sign
/// on an unsigned type, a space, trailing characters and overflow all fail.
/// Also reads command-line flag values.
template <typename T>
bool parse_directive_integer(std::string_view s, T* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// A non-negative duration given in units of 1/per_second seconds (1 for
/// seconds, 1000 for milliseconds) that fits sim::Time.
bool parse_directive_duration(std::string_view s, sim::Time* out,
                              double per_second = 1);

}  // namespace ppsim::obs
