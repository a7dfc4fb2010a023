// Fixture: message table with deliberate completeness holes.
#pragma once
#include <cstdint>
#include <string_view>
#include <tuple>
#include <variant>

namespace ppsim::proto {

struct SpanContext {
  std::uint64_t id = 0;
};

struct Ping {
  static constexpr std::string_view kName = "Ping";  // static: not a field
  std::uint64_t nonce = 0;
  std::uint32_t ttl = 0;  // completeness: message-fields (not listed)
  SpanContext span{};
  // hops: completeness: message-fields (listed, but not a member)
  static auto fields(auto& m) { return std::tie(m.nonce, m.hops); }
};

struct Pong {  // completeness: span-member (no SpanContext)
  std::uint64_t nonce = 0;
  static auto fields(auto& m) { return std::tie(m.nonce); }
};

struct Stray {  // completeness: variant-membership (not in the variant)
  SpanContext span{};
};

// Ghost: completeness: variant-membership (no struct declares it)
using Message = std::variant<Ping, Pong, Ghost>;

std::size_t wire_size(const Message& m);

}  // namespace ppsim::proto
