#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/ip.h"

namespace ppsim::net {

/// Open-addressing map from an attached IP to its host slot in
/// net::Network. Linear probing over a power-of-two table of {ip, slot}
/// cells kept at most half full, indexed by a Fibonacci hash of the
/// address. Deletion shifts the rest of the probe run back, so there are no
/// tombstones and a lookup never walks past a deleted entry. The
/// unspecified address 0.0.0.0, which is never attached, marks an empty
/// cell, and an empty cell's slot is kNone, so find(0.0.0.0) stops at the
/// first empty cell it probes and returns kNone with no extra test.
class IpIndex {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  IpIndex() : cells_(kMinCells) {}

  /// The slot stored for `ip`, or kNone.
  std::uint32_t find(IpAddress ip) const {
    for (std::size_t i = home(ip.value());; i = (i + 1) & mask()) {
      const Cell& c = cells_[i];
      if (c.ip == ip.value()) return c.slot;
      if (c.ip == 0) return kNone;
    }
  }

  /// Stores `ip` -> `slot`. `ip` must be specified and not yet present.
  void insert(IpAddress ip, std::uint32_t slot);

  /// Removes `ip` and returns its slot, or kNone if it was absent.
  std::uint32_t erase(IpAddress ip);

  std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kMinCells = 16;

  struct Cell {
    std::uint32_t ip = 0;  // 0 = empty
    std::uint32_t slot = kNone;
  };

  std::size_t mask() const { return cells_.size() - 1; }
  std::size_t home(std::uint32_t ip) const {
    return static_cast<std::size_t>(
        (std::uint64_t{ip} * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void place(Cell cell);

  std::vector<Cell> cells_;
  unsigned shift_ = 64 - 4;  // 64 - log2(cells_.size())
  std::size_t size_ = 0;
};

}  // namespace ppsim::net
