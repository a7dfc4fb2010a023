// Seeded never-crash loops for every reader of text that arrives from
// outside the process: NDJSON rows, telemetry datagrams, fault plans,
// health rules, capture traces and the command-line parsers. Random lines and mutated valid inputs
// must each be read or rejected without throwing or crashing, in the style
// of WireCodec.FuzzMutatedValidPacketsNeverCrash. Under the asan-ubsan
// preset this also means no sanitizer report.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "capture/trace_io.h"
#include "core/cli.h"
#include "faults/plan.h"
#include "obs/bench_json.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/span_tracker.h"
#include "obs/telemetry.h"
#include "sim/rng.h"
#include "wire/collector.h"
#include "wire/telemetry.h"

namespace ppsim {
namespace {

struct Target {
  const char* name;
  std::vector<std::string> valid;  // inputs the reader accepts
  // Reads one input; true when it was accepted.
  std::function<bool(const std::string&)> read;
};

template <typename T, typename Write>
std::string written(const T& value, Write write) {
  std::ostringstream os;
  write(os, value);
  return os.str();
}

std::vector<Target> targets() {
  obs::TrafficSample sample;
  sample.t = sim::Time::micros(15'000'249);
  sample.alive_peers = 40;
  sample.avg_continuity = 0.97;
  sample.bytes[0][0] = 1'000'000;
  sample.bytes[0][1] = 250;
  sample.interval_bytes = 1000;
  const std::string sample_row =
      written(sample, [](std::ostream& os, const obs::TrafficSample& s) {
        obs::write_sample_ndjson(os, s);
      });

  obs::MetricsRegistry registry;
  registry.counter("peer_joins", {{"isp", "TELE"}}).inc(7);
  registry.gauge("alive_peers").set(0.25);
  registry.histogram("startup_s", {1, 10}, {{"isp", "CNC"}}).observe(3);
  std::vector<std::string> metric_rows;
  {
    std::istringstream rows(
        written(registry, [](std::ostream& os, const obs::MetricsRegistry& r) {
          r.write_ndjson(os);
        }));
    for (std::string row; std::getline(rows, row);) metric_rows.push_back(row);
  }

  wire::TelemetryHeartbeat hb;
  hb.node = net::IpAddress(127, 1, 0, 10);
  hb.role = "peer";
  hb.seq = 3;
  hb.uptime = sim::Time::micros(12'500'000);
  std::string sample_line = sample_row;
  sample_line.pop_back();  // datagram rows carry no trailing newline
  const std::string datagram =
      wire::build_telemetry_datagrams(hb, metric_rows, {sample_line}).front();

  std::vector<obs::BenchEntry> bench(2);
  bench[0].name = "BM_Quote\"d";
  bench[0].iterations = 10;
  bench[0].ns_per_op = 2.5;
  bench[1].name = "scale/peers:01000";
  bench[1].rss_peak_bytes = 1 << 20;
  bench[1].wall_s = 1.5;
  bench[1].allocs_per_op = 0.25;

  return {
      {"samples",
       {sample_row},
       [](const std::string& s) {
         std::istringstream is(s);
         return !obs::read_samples_ndjson(is).empty();
       }},
      {"bench_json",
       {written(bench,
                [](std::ostream& os, const std::vector<obs::BenchEntry>& e) {
                  obs::write_bench_json(os, e);
                })},
       [](const std::string& s) {
         std::istringstream is(s);
         return !obs::read_bench_json(is).empty();
       }},
      {"health_events",
       {R"({"t":135.000249,"ev":"health.critical","rule":0,)"
        R"("kind":"continuity_floor","label":"cont\"x\\y","from":"warn",)"
        R"("to":"critical","value":0.61,"warn":0.9,"critical":0.75})"},
       [](const std::string& s) {
         std::istringstream is(s);
         return !obs::read_health_events_ndjson(is).empty();
       }},
      {"spans",
       {R"({"spans_schema":"ppsim-spans-v1","events":9,"spans":4,)"
        R"("referrals":1,"critical_paths":1})"
        "\n"
        R"({"kind":"referral","t":1.000000,"peer":"10.0.0.1",)"
        R"("neighbor":"10.0.0.2","via":"tracker","introducer":"10.0.0.3",)"
        R"("peer_isp":"TELE","introducer_isp":"TELE","same_isp":true})"
        "\n"
        R"({"kind":"critical_path","peer":"10.0.0.1","isp":"TELE",)"
        R"("t_join":0.500000,"startup_s":2.000249})"},
       [](const std::string& s) {
         std::istringstream is(s);
         obs::SpanFileData data;
         return obs::read_spans_ndjson(is, &data);
       }},
      {"metric_row",
       metric_rows,
       [](const std::string& s) {
         obs::ParsedMetric m;
         return obs::parse_metric_ndjson(s, &m);
       }},
      {"heartbeat",
       {wire::encode_heartbeat(hb)},
       [](const std::string& s) {
         wire::TelemetryHeartbeat back;
         const bool ok = wire::decode_heartbeat(s, &back);
         if (ok) {
           EXPECT_TRUE(back.role == "hub" || back.role == "source" ||
                       back.role == "peer")
               << back.role;
         }
         return ok;
       }},
      {"collector_ingest",
       {datagram},
       [](const std::string& s) {
         wire::Collector collector({});
         return collector.ingest(s, sim::Time::zero());
       }},
      {"fault_plan",
       {written(faults::tracker_blackout_throttle_plan(),
                [](std::ostream& os, const faults::FaultPlan& p) {
                  faults::write_fault_plan(os, p);
                })},
       [](const std::string& s) {
         std::istringstream is(s);
         const auto parsed = faults::parse_fault_plan(is);
         EXPECT_TRUE(parsed.ok() || parsed.plan.empty()) << parsed.error;
         return parsed.ok();
       }},
      {"health_rules",
       {written(obs::default_health_rules(),
                [](std::ostream& os, const obs::HealthRuleSet& r) {
                  obs::write_health_rules(os, r);
                })},
       [](const std::string& s) {
         std::istringstream is(s);
         const auto parsed = obs::parse_health_rules(is);
         EXPECT_TRUE(parsed.ok() || parsed.rules.empty()) << parsed.error;
         return parsed.ok();
       }},
      {"trace_record",
       {"1500,out,167772161,335544321,36,ChannelListQuery",
        "1600,in,167772161,335544321,48,ChannelListReply,3,1,2,3",
        "100,out,167772161,335544321,40,JoinQuery,3",
        "250,in,167772161,335544321,60,JoinReply,3,503316481,2,1,2",
        "300,out,167772161,335544322,44,TrackerQuery,3",
        "400,in,167772161,335544322,60,TrackerReply,3,3,7,8,9",
        "500,out,167772161,7,52,PeerListQuery,3,2,9,11",
        "700,in,167772161,7,40,PeerListReply,3,0",
        "800,out,167772161,7,44,ConnectQuery,3",
        "900,in,167772161,7,80,ConnectReply,3,1,40,5,b0",
        "950,in,167772161,7,48,ConnectReply,3,0,40,0,",
        "1000,in,167772161,7,70,BufferMapAnnounce,3,42,2,c",
        "1100,out,167772161,7,48,DataQuery,3,42",
        "1500000,in,167772161,335544321,5560,DataReply,1,42,4,5520",
        "1400,out,167772161,7,40,Goodbye,3"},
       [](const std::string& s) {
         return capture::parse_record(s).has_value();
       }},
      {"host_port",
       {"127.0.0.9:47500"},
       [](const std::string& s) {
         net::IpAddress ip;
         std::uint16_t port = 0;
         return wire::parse_host_port(s, &ip, &port);
       }},
      {"cli",
       {"--channel unpopular --viewers 40 --minutes 4 --seed 7 --probe tele "
        "--probe cnc --dump-trace P --report all --progress=60",
        "--fault-plan plan.txt --fault-seed 3 --sample-period 15 "
        "--samples-out s.ndjson --health-rules default --causal-trace"},
       [](const std::string& s) {
         // argv is the input split at every space, after a program name.
         std::vector<std::string> args = {"ppsim"};
         for (std::size_t at = 0, end; at <= s.size(); at = end + 1) {
           end = std::min(s.find(' ', at), s.size());
           args.push_back(s.substr(at, end - at));
         }
         std::vector<const char*> argv;
         for (const std::string& a : args) argv.push_back(a.c_str());
         return !core::parse_cli(static_cast<int>(argv.size()), argv.data())
                     .error.has_value();
       }},
  };
}

// Characters the readers give meaning to, plus tokens that probe number
// and count limits; any byte can also appear.
constexpr std::string_view kAlphabet =
    "{}[]\":,.-+eE0123456789 \t=#\\untrfalsinwdo\n";
const char* const kHostileTokens[] = {
    "18446744073709551615", "18446744073709551616", "4000000000000",
    "-1", "1e400", "1e300", "nan", "inf", "0.0000001", "\\u0000",
    "\\u00ff", "\\", "\"", ",", "=", "#"};

char random_char(sim::Rng& rng) {
  if (rng.next_below(4) == 0)
    return static_cast<char>(rng.next_below(256));
  return kAlphabet[rng.next_below(kAlphabet.size())];
}

std::string mutate(std::string s, sim::Rng& rng) {
  const auto pos = [&] {
    return static_cast<std::size_t>(rng.next_below(s.size() + 1));
  };
  const std::string_view hostile =
      kHostileTokens[rng.next_below(std::size(kHostileTokens))];
  switch (rng.next_below(5)) {
    case 0:
      s.resize(pos());
      break;
    case 1:
      for (int n = 1 + static_cast<int>(rng.next_below(8)); n > 0; --n)
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos()),
                 random_char(rng));
      break;
    case 2:
      for (int flips = 0; flips < 4 && !s.empty(); ++flips)
        s[static_cast<std::size_t>(rng.next_below(s.size()))] =
            random_char(rng);
      break;
    case 3: {
      // Swap a whole field or value for a hostile token.
      constexpr std::string_view kDelimiters = ",:= \t\n{}[]\"";
      std::size_t begin = pos(), end = begin;
      while (begin > 0 && kDelimiters.find(s[begin - 1]) == s.npos) --begin;
      while (end < s.size() && kDelimiters.find(s[end]) == s.npos) ++end;
      s.replace(begin, end - begin, hostile);
      break;
    }
    default:
      s.insert(pos(), hostile);
      break;
  }
  return s;
}

TEST(ReaderFuzz, RandomAndMutatedInputsNeverCrash) {
  sim::Rng rng(0xF0223);
  for (const Target& target : targets()) {
    SCOPED_TRACE(target.name);
    for (const std::string& valid : target.valid)
      ASSERT_TRUE(target.read(valid)) << valid;
    for (int iter = 0; iter < 500; ++iter) {
      std::string line(static_cast<std::size_t>(rng.next_below(200)), ' ');
      for (char& c : line) c = random_char(rng);
      EXPECT_NO_THROW(target.read(line)) << line;
    }
    for (const std::string& valid : target.valid) {
      for (int iter = 0; iter < 1000; ++iter) {
        std::string input = valid;
        for (int rounds = 1 + static_cast<int>(rng.next_below(3)); rounds > 0;
             --rounds)
          input = mutate(std::move(input), rng);
        EXPECT_NO_THROW(target.read(input)) << input;
      }
    }
  }
}

}  // namespace
}  // namespace ppsim
