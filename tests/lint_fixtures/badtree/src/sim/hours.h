// Fixture: a digit separator belongs to its number. The third quote of
// 3'600'000'000LL opens no char literal, so the wall-clock read below
// stays visible to every pass.
#pragma once

#include <chrono>
#include <cstdint>

namespace ppsim::sim {

inline constexpr std::int64_t kHourMicros = 3'600'000'000LL;
inline constexpr wchar_t kHourUnit = L'h';

inline auto wall_now() {
  return std::chrono::system_clock::now();  // determinism: wall-clock
}

}  // namespace ppsim::sim
