#include "obs/directive.h"

#include <cmath>
#include <istream>
#include <sstream>

namespace ppsim::obs {

std::string read_directives(
    std::istream& in, std::string_view what, std::string_view keyword,
    const std::function<std::string(std::string_view key,
                                     std::string_view value)>& on_pair,
    const std::function<std::string()>& on_line_end) {
  std::string line;
  int line_no = 0;
  const auto line_error = [&](const std::string& msg) {
    return std::string(what) + " line " + std::to_string(line_no) + ": " +
           msg;
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.resize(hash);
    std::istringstream tokens(line);
    std::string token;
    if (!(tokens >> token)) continue;  // blank / comment-only line
    if (token != keyword) {
      return line_error("expected '" + std::string(keyword) + "', got '" +
                        token + "'");
    }
    while (tokens >> token) {
      const auto eq = token.find('=');
      if (eq == std::string::npos || eq == 0)
        return line_error("malformed token '" + token + "'");
      const std::string_view kv = token;
      if (std::string msg = on_pair(kv.substr(0, eq), kv.substr(eq + 1));
          !msg.empty())
        return line_error(msg);
    }
    if (std::string msg = on_line_end(); !msg.empty()) return line_error(msg);
  }
  return {};
}

// std::stod/std::stoi rather than std::from_chars: their grammar (a
// leading '+', hex floats) is the one rule files and plans were written in.
bool parse_directive_double(std::string_view s, double* out) {
  try {
    std::size_t used = 0;
    const double v = std::stod(std::string(s), &used);
    if (used != s.size() || !std::isfinite(v)) return false;
    *out = v;
    return true;
  } catch (...) {
    return false;
  }
}

bool parse_directive_int(std::string_view s, int* out) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(std::string(s), &used);
    if (used != s.size()) return false;
    *out = v;
    return true;
  } catch (...) {
    return false;
  }
}

bool parse_directive_duration(std::string_view s, sim::Time* out,
                              double per_second) {
  double v = 0;
  if (!parse_directive_double(s, &v) || v < 0) return false;
  const double seconds = v / per_second;
  if (seconds * 1e6 >= 0x1p63) return false;  // beyond sim::Time's range
  *out = sim::Time::from_seconds(seconds);
  return true;
}

}  // namespace ppsim::obs
