#include "core/session_export.h"

#include <ostream>
#include <sstream>

namespace ppsim::core {

namespace {
constexpr const char* kHeader =
    "channel,category,nat,joined_s,left_s,completed,duration_s,bytes_down,"
    "bytes_up,continuity";
}

std::size_t write_sessions_csv(std::ostream& os,
                               const std::vector<SessionRecord>& sessions) {
  os << kHeader << '\n';
  for (const auto& s : sessions) {
    os << s.channel << ',' << static_cast<int>(s.category) << ','
       << (s.behind_nat ? 1 : 0) << ',' << s.joined.as_seconds() << ','
       << s.left.as_seconds() << ',' << (s.completed ? 1 : 0) << ','
       << s.duration_seconds() << ',' << s.bytes_downloaded << ','
       << s.bytes_uploaded << ',' << s.continuity << '\n';
  }
  return sessions.size();
}

std::vector<SessionRecord> read_sessions_csv(std::istream& is,
                                             std::size_t* dropped) {
  std::vector<SessionRecord> out;
  std::size_t bad = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line == kHeader) continue;
    std::istringstream in(line);
    SessionRecord rec;
    char comma;
    unsigned channel = 0, category = 0, nat = 0, completed = 0;
    double joined = 0, left = 0, duration = 0, continuity = 0;
    std::uint64_t down = 0, up = 0;
    in >> channel >> comma >> category >> comma >> nat >> comma >> joined >>
        comma >> left >> comma >> completed >> comma >> duration >> comma >>
        down >> comma >> up >> comma >> continuity;
    if (in.fail() || category >= net::kNumIspCategories) {
      ++bad;
      continue;
    }
    rec.channel = channel;
    rec.category = static_cast<net::IspCategory>(category);
    rec.behind_nat = nat != 0;
    rec.joined = sim::Time::from_seconds(joined);
    rec.left = sim::Time::from_seconds(left);
    rec.completed = completed != 0;
    rec.bytes_downloaded = down;
    rec.bytes_uploaded = up;
    rec.continuity = continuity;
    out.push_back(rec);
  }
  if (dropped) *dropped = bad;
  return out;
}

}  // namespace ppsim::core
