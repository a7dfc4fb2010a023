#pragma once

// Flag values of the deployment tools (ppsim-node, ppsim-collect), which
// take `--key=value` flags. A number must fill its whole value and fit its
// field, read by the whole-token parsers of obs/directive.h. Anything else
// prints "<tool>: bad value for <key>: <value>" (or "missing value for
// <key>" when the value is empty) and exits 2, the usage-error status.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/directive.h"
#include "sim/time.h"

namespace ppsim::tools {

class FlagValues {
 public:
  explicit FlagValues(const char* tool) : tool_(tool) {}

  [[noreturn]] void reject(const std::string& key,
                           const std::string& value) const {
    if (value.empty()) {
      std::fprintf(stderr, "%s: missing value for %s\n", tool_, key.c_str());
    } else {
      std::fprintf(stderr, "%s: bad value for %s: %s\n", tool_, key.c_str(),
                   value.c_str());
    }
    std::exit(2);
  }

  /// An integer in T's range; an unsigned T takes no sign.
  template <typename T>
  T integer(const std::string& key, const std::string& value) const {
    T out{};
    if (!obs::parse_directive_integer(value, &out)) reject(key, value);
    return out;
  }

  /// A finite number greater than zero.
  double positive(const std::string& key, const std::string& value) const {
    double out = 0;
    if (!obs::parse_directive_double(value, &out) || out <= 0)
      reject(key, value);
    return out;
  }

  /// A non-negative number of seconds that fits sim::Time.
  sim::Time seconds(const std::string& key, const std::string& value) const {
    sim::Time out;
    if (!obs::parse_directive_duration(value, &out)) reject(key, value);
    return out;
  }

 private:
  const char* tool_;
};

}  // namespace ppsim::tools
