#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "capture/trace.h"

namespace ppsim::capture {

/// Serialization of packet traces to a line-based text format, so captures
/// can be archived and re-analyzed without re-running the simulation (the
/// simulated analogue of saving the paper's 130 GB of Wireshark captures).
///
/// Format: one record per line,
///
///   <time_us>,<dir>,<local>,<remote>,<bytes>,<type>,<fields...>
///
/// where <dir> is "out"/"in", <type> is the message's kName, and <fields>
/// are the message's field list (proto/message.h) in order, one token per
/// number: an address as its 32-bit value, a bool as 0 or 1, a list as its
/// length and then its entries, a buffer map as `<base>,<bits>,<hex>` (the
/// hex token is empty for an empty map). The format is self-contained:
/// read_trace reconstructs records exactly (round-trip identity), which the
/// tests assert.

/// Writes the whole trace; returns the number of records written.
std::size_t write_trace(std::ostream& os, const PacketTrace& trace);

/// Convenience: writes to a file, returning false on I/O failure.
bool write_trace_file(const std::string& path, const PacketTrace& trace);

/// Parses one serialized record; nullopt on malformed input, including a
/// number that does not fit its field and a token past the last field.
std::optional<TraceRecord> parse_record(const std::string& line);

/// Reads records until EOF; malformed lines are skipped and counted in
/// `dropped` when provided.
PacketTrace read_trace(std::istream& is, std::size_t* dropped = nullptr);

std::optional<PacketTrace> read_trace_file(const std::string& path,
                                           std::size_t* dropped = nullptr);

}  // namespace ppsim::capture
