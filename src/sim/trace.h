#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "sim/time.h"

namespace ppsim::sim {

/// One traced protocol/simulator event: a sim-timestamp, an event name, and
/// an ordered list of typed fields. Field order is the emission order, so a
/// given emitter always serializes identically — trace files from same-seed
/// runs are byte-identical (no wall-clock, no addresses, no hash order).
///
/// TraceEvent and the abstract TraceSink live in `sim` (not `obs`) because
/// protocol code below the observability layer emits events: the module DAG
/// is sim <- net <- proto <- obs, and the lint layering pass rejects upward
/// includes. Concrete sinks (NDJSON, tee, counting, flight recorder) stay
/// in `obs`, which also re-exports these two names as obs::TraceEvent /
/// obs::TraceSink for observability-side code.
class TraceEvent {
 public:
  using Value = std::variant<std::uint64_t, std::int64_t, double, bool,
                             std::string>;
  struct Field {
    std::string key;
    Value value;
  };

  TraceEvent(Time t, std::string_view name) : t_(t), name_(name) {}

  TraceEvent& field(std::string_view key, std::uint64_t value) {
    return push(key, Value(std::in_place_type<std::uint64_t>, value));
  }
  TraceEvent& field(std::string_view key, std::int64_t value) {
    return push(key, Value(std::in_place_type<std::int64_t>, value));
  }
  TraceEvent& field(std::string_view key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  TraceEvent& field(std::string_view key, unsigned value) {
    return field(key, static_cast<std::uint64_t>(value));
  }
  TraceEvent& field(std::string_view key, double value) {
    return push(key, Value(std::in_place_type<double>, value));
  }
  TraceEvent& field(std::string_view key, bool value) {
    return push(key, Value(std::in_place_type<bool>, value));
  }
  TraceEvent& field(std::string_view key, std::string_view value) {
    return push(key, Value(std::in_place_type<std::string>, value));
  }
  TraceEvent& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }

  Time time() const { return t_; }
  const std::string& name() const { return name_; }
  const std::vector<Field>& fields() const { return fields_; }

 private:
  TraceEvent& push(std::string_view key, Value value) {
    fields_.push_back(Field{std::string(key), std::move(value)});
    return *this;
  }

  Time t_;
  std::string name_;
  std::vector<Field> fields_;
};

/// Receiver of trace events. Protocol emitters read the run's sink from
/// their Simulator (Simulator::set_tracing); it is nullptr by default, so a
/// disabled trace costs one branch per would-be event.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const TraceEvent& event) = 0;
};

}  // namespace ppsim::sim
