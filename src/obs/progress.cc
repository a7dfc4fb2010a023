#include "obs/progress.h"

#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace ppsim::obs {

namespace {

/// 1234 -> "1.2k", 1234567 -> "1.2M"; plain digits below 1000.
std::string human_rate(double per_second) {
  char buf[32];
  if (per_second >= 1e6)
    std::snprintf(buf, sizeof(buf), "%.1fM", per_second / 1e6);
  else if (per_second >= 1e3)
    std::snprintf(buf, sizeof(buf), "%.1fk", per_second / 1e3);
  else
    std::snprintf(buf, sizeof(buf), "%.0f", per_second);
  return buf;
}

std::string human_bytes(std::uint64_t bytes) {
  char buf[32];
  const double b = static_cast<double>(bytes);
  if (b >= 1024.0 * 1024.0 * 1024.0)
    std::snprintf(buf, sizeof(buf), "%.1fGB", b / (1024.0 * 1024.0 * 1024.0));
  else
    std::snprintf(buf, sizeof(buf), "%.1fMB", b / (1024.0 * 1024.0));
  return buf;
}

}  // namespace

std::string ProgressMeter::format_line(const State& state) const {
  char buf[96];
  std::string line = "[progress] t=";
  std::snprintf(buf, sizeof(buf), "%.1fs", state.now.as_seconds());
  line += buf;
  if (options_.total > sim::Time::zero()) {
    std::snprintf(buf, sizeof(buf), "/%.0fs (%.1f%%)",
                  options_.total.as_seconds(),
                  100.0 * state.now.as_seconds() /
                      options_.total.as_seconds());
    line += buf;
  }

  const double wall = state.wall_seconds;
  if (wall > 0) {
    std::snprintf(buf, sizeof(buf), " wall=%.1fs", wall);
    line += buf;
  } else {
    line += " wall=-";
  }

  std::snprintf(buf, sizeof(buf), " events=%" PRIu64, state.events_executed);
  line += buf;
  if (wall > 0) {
    line += " (" +
            human_rate(static_cast<double>(state.events_executed) / wall) +
            "/s)";
  } else {
    line += " (-/s)";
  }

  std::snprintf(buf, sizeof(buf), " peers=%" PRIu64 " queue=%zu",
                state.peers_alive, state.queue_depth);
  line += buf;
  line += " rss=" + (state.rss_bytes > 0 ? human_bytes(state.rss_bytes)
                                         : std::string("-"));

  // ETA: wall seconds per sim second since the last heartbeat,
  // extrapolated over the sim time left. The first heartbeat has no
  // interval yet and prints "-".
  if (last_wall_ > 0 && wall > last_wall_ && options_.total > state.now &&
      state.now > last_now_) {
    const double per_sim =
        (wall - last_wall_) / (state.now - last_now_).as_seconds();
    std::snprintf(buf, sizeof(buf), " eta=%.1fs",
                  per_sim * (options_.total - state.now).as_seconds());
    line += buf;
  } else {
    line += " eta=-";
  }
  return line;
}

void ProgressMeter::tick(const State& state) {
  if (options_.out == nullptr) return;
  *options_.out << format_line(state) << '\n';
  options_.out->flush();
  ++lines_;
  last_now_ = state.now;
  last_wall_ = state.wall_seconds;
}

}  // namespace ppsim::obs
