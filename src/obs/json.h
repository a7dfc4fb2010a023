#pragma once

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

#include "sim/time.h"

namespace ppsim::obs {

/// Formatting primitives shared by every NDJSON emitter in the
/// observability layer, and the read side every NDJSON reader uses. All
/// output routed through these helpers is deterministic: fixed-width
/// sim-time, locale-independent numbers, and a canonical escape set — so
/// byte-identical runs produce byte-identical files (the property
/// tests/sim_determinism_test.cc pins).

/// Writes `s` JSON-escaped, without surrounding quotes.
inline void write_json_escaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

/// Writes `s` as a JSON string, quotes included.
inline void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  write_json_escaped(os, s);
  os << '"';
}

/// Writes a double as a JSON number ("%.9g": enough digits to be stable,
/// few enough to stay readable; never locale-dependent).
inline void write_json_double(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

/// Writes a sim::Time as seconds with microsecond precision ("12.345678"),
/// the canonical "t" field of every NDJSON row.
inline void write_json_sim_time(std::ostream& os, sim::Time t) {
  const std::int64_t us = t.as_micros();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%06lld",
                static_cast<long long>(us / 1'000'000),
                static_cast<long long>(us % 1'000'000));
  os << buf;
}

/// The read side: the inverse of the writers above for the rows ppsim
/// writes, so a value read back is exactly the value written. Not a
/// general JSON parser. A key matches only where it is a key, never when
/// spelled inside a string value; keys are plain names that need no
/// escaping. Each reader returns false, leaving *out unchanged, when the
/// key is missing or its value is malformed; numbers must fill their whole
/// value token.

/// Offset of the value that follows the first `"key":`, or npos.
std::size_t find_json_value(std::string_view row, std::string_view key);

/// Decodes the JSON string that starts at row[*pos] (which must be '"'),
/// undoing write_json_escaped; advances *pos past the closing quote.
bool read_json_string_at(std::string_view row, std::size_t* pos,
                         std::string* out);

bool read_json_string(std::string_view row, std::string_view key,
                      std::string* out);
bool read_json_double(std::string_view row, std::string_view key,
                      double* out);
bool read_json_u64(std::string_view row, std::string_view key,
                   std::uint64_t* out);
bool read_json_bool(std::string_view row, std::string_view key, bool* out);
/// Reads a write_json_sim_time value ("<secs>.<micros>", non-negative)
/// back to the exact microsecond; up to six fraction digits.
bool read_json_sim_time(std::string_view row, std::string_view key,
                        sim::Time* out);

}  // namespace ppsim::obs
