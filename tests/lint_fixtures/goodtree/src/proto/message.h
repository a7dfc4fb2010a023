// Fixture: complete single-message table.
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
  static constexpr std::string_view kName = "Ping";
  std::uint64_t nonce = 0;
  SpanContext span{};
  static auto fields(auto& m) { return std::tie(m.nonce); }
};

using Message = std::variant<Ping>;

std::size_t wire_size(const Message& m);

}  // namespace ppsim::proto
