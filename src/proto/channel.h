#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace ppsim::proto {

using ChannelId = std::uint32_t;
using ChunkSeq = std::uint64_t;

/// Static description of one live streaming channel.
///
/// The stream is chopped into chunks; each chunk is carried on the wire as
/// `subpieces_per_chunk` UDP sub-pieces of `subpiece_bytes` (1380 bytes in
/// PPLive 1.9, per the paper's reverse engineering). The simulator's data
/// plane requests and accounts whole chunks — the sub-piece structure is
/// preserved in wire sizing and in the per-transmission counters — which
/// keeps event counts tractable without changing who serves whom.
struct ChannelSpec {
  ChannelId id = 0;
  std::string name;
  double bitrate_bps = 400e3;           // typical PPLive live rate in 2008
  std::uint32_t subpiece_bytes = 1380;  // paper: 1380 or 690 bytes
  std::uint32_t subpieces_per_chunk = 4;

  std::uint32_t chunk_bytes() const {
    return subpiece_bytes * subpieces_per_chunk;
  }

  /// Real-time duration of stream carried by one chunk.
  sim::Time chunk_duration() const {
    return sim::Time::from_seconds(static_cast<double>(chunk_bytes()) * 8.0 /
                                   bitrate_bps);
  }
};

}  // namespace ppsim::proto
