#include "obs/trace.h"

#include <ostream>

#include "obs/json.h"

namespace ppsim::obs {

void NdjsonTraceSink::write(const TraceEvent& event) {
  os_ << "{\"t\":";
  write_json_sim_time(os_, event.time());
  os_ << ",\"ev\":";
  write_json_string(os_, event.name());
  for (const auto& f : event.fields()) {
    os_ << ',';
    write_json_string(os_, f.key);
    os_ << ':';
    std::visit(
        [&](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string>) {
            write_json_string(os_, v);
          } else if constexpr (std::is_same_v<T, bool>) {
            os_ << (v ? "true" : "false");
          } else if constexpr (std::is_same_v<T, double>) {
            write_json_double(os_, v);
          } else {
            os_ << v;
          }
        },
        f.value);
  }
  os_ << "}\n";
  ++events_written_;
}

void SimEventTracer::on_event_begin(sim::Time now, std::uint64_t seq,
                                    const char* category,
                                    std::size_t queue_depth) {
  TraceEvent ev(now, "sim_event");
  ev.field("seq", seq)
      .field("cat", category)
      .field("qdepth", static_cast<std::uint64_t>(queue_depth));
  sink_.write(ev);
}

}  // namespace ppsim::obs
