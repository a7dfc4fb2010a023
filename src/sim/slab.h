#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace ppsim::sim {

/// Free-listed pool of T addressed by a dense 32-bit index, with stable
/// addresses: elements live in chunks of at most 16 KiB (a power-of-two
/// element count, at least one) that are allocated once and never move,
/// so a reference taken before an acquire() stays valid after it. That is
/// what lets a handler running out of one element acquire others.
///
/// An element is default-constructed with its chunk and destroyed with the
/// slab. release() only returns the index to the free list, so the caller
/// clears whatever state must not outlive the element's use. The free list
/// is LIFO: the most recently released (cache-warm) element is reused first.
/// In steady state acquire() and release() allocate nothing.
template <typename T>
class Slab {
 public:
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t index = free_.back();
      free_.pop_back();
      return index;
    }
    if ((size_ & kMask) == 0) chunks_.push_back(std::make_unique<Chunk>());
    return size_++;
  }

  void release(std::uint32_t index) { free_.push_back(index); }

  /// Elements ever handed out: the peak number in use at once.
  std::uint32_t size() const { return size_; }

  T& operator[](std::uint32_t index) {
    return (*chunks_[index >> kChunkBits])[index & kMask];
  }
  const T& operator[](std::uint32_t index) const {
    return (*chunks_[index >> kChunkBits])[index & kMask];
  }

 private:
  static constexpr unsigned kChunkBits =
      std::bit_width(std::max<std::size_t>(16384 / sizeof(T), 1)) - 1;
  static constexpr std::uint32_t kMask = (std::uint32_t{1} << kChunkBits) - 1;
  using Chunk = std::array<T, std::size_t{1} << kChunkBits>;

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t size_ = 0;  // elements ever handed out
};

}  // namespace ppsim::sim
