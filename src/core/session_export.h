#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace ppsim::core {

/// CSV export of viewer sessions (one row per session), the workload-
/// characterization artifact the paper motivates ("a basis to generate
/// practical P2P streaming workloads"). Columns:
///
///   channel,category,nat,joined_s,left_s,completed,duration_s,
///   bytes_down,bytes_up,continuity
std::size_t write_sessions_csv(std::ostream& os,
                               const std::vector<SessionRecord>& sessions);

/// Parses rows written by write_sessions_csv (header tolerated/skipped).
std::vector<SessionRecord> read_sessions_csv(std::istream& is,
                                             std::size_t* dropped = nullptr);

}  // namespace ppsim::core
