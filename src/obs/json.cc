#include "obs/json.h"

#include <charconv>
#include <limits>

namespace ppsim::obs {

namespace {

/// Parses all of `s` as a T; false on a partial or out-of-range parse.
template <typename T>
bool parse_whole(std::string_view s, T* out) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) return false;
  *out = v;
  return true;
}

/// The unquoted value token of `key` (its text up to the next ',', '}' or
/// ']'); empty when the key is missing.
std::string_view bare_value(std::string_view row, std::string_view key) {
  const std::size_t pos = find_json_value(row, key);
  if (pos == std::string_view::npos) return {};
  return row.substr(pos, row.find_first_of(",}]", pos) - pos);
}

}  // namespace

std::size_t find_json_value(std::string_view row, std::string_view key) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] != '"') continue;
    // Skip the whole string, so nothing spelled inside it can match.
    const std::size_t start = i + 1;
    for (++i; i < row.size() && row[i] != '"'; ++i) {
      if (row[i] == '\\') ++i;
    }
    if (i + 1 < row.size() && row[i + 1] == ':' &&
        row.substr(start, i - start) == key)
      return i + 2;
  }
  return std::string_view::npos;
}

bool read_json_string_at(std::string_view row, std::size_t* pos,
                         std::string* out) {
  std::size_t i = *pos;
  if (i >= row.size() || row[i] != '"') return false;
  ++i;
  out->clear();
  while (i < row.size()) {
    const char c = row[i];
    if (c == '"') {
      *pos = i + 1;
      return true;
    }
    if (c == '\\') {
      if (i + 1 >= row.size()) return false;
      const char esc = row[i + 1];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          // write_json_escaped emits \u only for control characters.
          unsigned code = 0;
          const char* hex = row.data() + i + 2;
          if (row.size() < i + 6 ||
              std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4 ||
              code > 0x7f)
            return false;
          out->push_back(static_cast<char>(code));
          i += 4;
          break;
        }
        default: return false;
      }
      i += 2;
      continue;
    }
    out->push_back(c);
    ++i;
  }
  return false;  // unterminated
}

bool read_json_string(std::string_view row, std::string_view key,
                      std::string* out) {
  std::size_t pos = find_json_value(row, key);
  std::string s;
  if (pos == std::string_view::npos || !read_json_string_at(row, &pos, &s))
    return false;
  *out = std::move(s);
  return true;
}

bool read_json_double(std::string_view row, std::string_view key,
                      double* out) {
  return parse_whole(bare_value(row, key), out);
}

bool read_json_u64(std::string_view row, std::string_view key,
                   std::uint64_t* out) {
  return parse_whole(bare_value(row, key), out);
}

bool read_json_bool(std::string_view row, std::string_view key, bool* out) {
  const std::string_view v = bare_value(row, key);
  if (v != "true" && v != "false") return false;
  *out = v == "true";
  return true;
}

bool read_json_sim_time(std::string_view row, std::string_view key,
                        sim::Time* out) {
  // Largest whole-second count whose every microsecond fits sim::Time.
  constexpr std::uint64_t kMaxSeconds =
      std::numeric_limits<std::int64_t>::max() / 1'000'000 - 1;
  const std::string_view v = bare_value(row, key);
  const std::size_t dot = v.find('.');
  std::uint64_t secs = 0, micros = 0;
  if (!parse_whole(v.substr(0, dot), &secs) || secs > kMaxSeconds)
    return false;
  if (dot != std::string_view::npos) {
    const std::string_view frac = v.substr(dot + 1);
    if (frac.empty() || frac.size() > 6 || !parse_whole(frac, &micros))
      return false;
    for (std::size_t i = frac.size(); i < 6; ++i) micros *= 10;
  }
  *out = sim::Time::micros(static_cast<std::int64_t>(secs * 1'000'000 +
                                                     micros));
  return true;
}

}  // namespace ppsim::obs
