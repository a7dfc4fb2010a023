#pragma once

// Test-side observability helpers.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace ppsim::obs {

/// Counts events per name (sorted vector, deterministic order): a cheap
/// volume summary for asserting which events a run emitted.
class CountingTraceSink final : public TraceSink {
 public:
  void write(const TraceEvent& event) override {
    ++total_;
    const auto it = std::lower_bound(
        counts_.begin(), counts_.end(), event.name(),
        [](const auto& entry, const std::string& name) {
          return entry.first < name;
        });
    if (it != counts_.end() && it->first == event.name()) {
      ++it->second;
    } else {
      counts_.insert(it, {event.name(), 1});
    }
  }

  std::uint64_t total() const { return total_; }

  std::uint64_t count(std::string_view name) const {
    const auto it = std::lower_bound(
        counts_.begin(), counts_.end(), name,
        [](const auto& entry, std::string_view n) { return entry.first < n; });
    return it != counts_.end() && it->first == name ? it->second : 0;
  }

 private:
  std::vector<std::pair<std::string, std::uint64_t>> counts_;  // sorted
  std::uint64_t total_ = 0;
};

}  // namespace ppsim::obs
