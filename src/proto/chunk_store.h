#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "proto/channel.h"

namespace ppsim::proto {

/// Compact advertisement of which chunks a peer holds, exchanged in
/// handshakes and periodic announcements (the mesh-pull "buffer map").
struct BufferMap {
  ChunkSeq base = 0;           // first chunk described by `have`
  std::vector<bool> have;      // have[i] => holds chunk base+i

  bool has(ChunkSeq seq) const {
    if (seq < base) return false;
    const ChunkSeq off = seq - base;
    return off < have.size() && have[off];
  }

  /// Highest chunk marked present, or 0 when empty.
  ChunkSeq highest() const {
    for (std::size_t i = have.size(); i > 0; --i)
      if (have[i - 1]) return base + i - 1;
    return 0;
  }
};

/// A live peer's sliding window of received chunks.
///
/// Chunks older than `retention` below the highest stored chunk are evicted
/// (a live viewer has no reason to keep minutes-old data) and stop being
/// advertised or served.
class ChunkStore {
 public:
  /// How far below the newest chunk an advertised map reaches: peers and
  /// the source advertise the newest kAdvertisedBehind + 1 = 65 chunks.
  static constexpr ChunkSeq kAdvertisedBehind = 64;

  explicit ChunkStore(std::uint32_t retention = 256) : retention_(retention) {}

  /// Marks a chunk received. Returns false if it was already present or has
  /// already been evicted (duplicate / too late).
  bool insert(ChunkSeq seq);

  bool has(ChunkSeq seq) const;

  /// Lowest chunk still retained (0 when empty).
  ChunkSeq base() const { return base_; }
  /// Highest chunk ever inserted (0 when empty).
  ChunkSeq highest() const { return empty_ ? 0 : highest_; }
  bool empty() const { return empty_; }

  std::uint64_t chunks_held() const;

  /// Approximate heap footprint of the retained-window bitmap (for the
  /// resource probe's live-byte gauges).
  std::size_t approx_bytes() const { return bits_.size() * sizeof(bool); }

  /// Snapshot for advertising; covers [from, highest] intersected with the
  /// retained window.
  BufferMap snapshot(ChunkSeq from) const;

  /// The map a holder advertises in handshakes and announcements: the
  /// newest chunks, at most kAdvertisedBehind + 1 of them (empty when the
  /// store is).
  BufferMap advertised() const {
    return snapshot(highest_ > kAdvertisedBehind ? highest_ - kAdvertisedBehind
                                                 : base_);
  }

 private:
  void evict_below(ChunkSeq new_base);

  std::uint32_t retention_;
  ChunkSeq base_ = 0;      // seq of bits_[0]
  ChunkSeq highest_ = 0;
  bool empty_ = true;
  std::deque<bool> bits_;
};

}  // namespace ppsim::proto
