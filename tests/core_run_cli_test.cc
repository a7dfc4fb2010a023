// End-to-end coverage of the CLI driver's run path (tiny configurations so
// the whole thing stays fast).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "capture/trace_io.h"
#include "core/cli.h"
#include "faults/plan.h"
#include "faults/resilience.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/sampler.h"

namespace ppsim::core {
namespace {

CliOptions tiny_options() {
  CliOptions options;
  options.channel = "unpopular";
  options.viewers = 40;
  options.minutes = 3;
  options.seed = 8;
  options.probes = {"tele"};
  options.reports = {"data"};
  return options;
}

/// The CI smoke plan: a tracker outage overlapping a cross-ISP throttle,
/// then a crash burst.
std::string write_ci_plan(const std::string& path) {
  std::ofstream plan(path);
  plan << "window kind=tracker_outage start=45 end=90 group=-1 label=ci-dark\n"
          "window kind=link_degrade start=60 end=90 a=TELE b=CNC loss=0.3 "
          "added_rtt_ms=150\n"
          "window kind=churn_burst at=75 fraction=0.2 label=ci-burst\n";
  return path;
}

TEST(RunCliTest, HelpPrintsUsage) {
  CliOptions options;
  options.help = true;
  std::ostringstream out;
  EXPECT_EQ(run_cli(options, out), 0);
  EXPECT_NE(out.str().find("usage: ppsim"), std::string::npos);
}

TEST(RunCliTest, DataReportEndToEnd) {
  std::ostringstream out;
  EXPECT_EQ(run_cli(tiny_options(), out), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("channel=unpopular"), std::string::npos);
  EXPECT_NE(text.find("== probe TELE"), std::string::npos);
  EXPECT_NE(text.find("Downloaded bytes by ISP"), std::string::npos);
  EXPECT_NE(text.find("locality:"), std::string::npos);
}

TEST(RunCliTest, AllSectionsPrint) {
  auto options = tiny_options();
  options.reports = {"all"};
  std::ostringstream out;
  EXPECT_EQ(run_cli(options, out), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("Returned peer addresses"), std::string::npos);
  EXPECT_NE(text.find("replier class"), std::string::npos);
  EXPECT_NE(text.find("Peer-list response times"), std::string::npos);
  EXPECT_NE(text.find("stretched-exponential"), std::string::npos);
  EXPECT_NE(text.find("correlation coefficient"), std::string::npos);
  EXPECT_NE(text.find("traffic matrix"), std::string::npos);
}

TEST(RunCliTest, DumpTraceWritesFile) {
  auto options = tiny_options();
  options.dump_trace = ::testing::TempDir() + "/ppsim_cli_test";
  std::ostringstream out;
  EXPECT_EQ(run_cli(options, out), 0);
  EXPECT_NE(out.str().find("trace written:"), std::string::npos);
  std::ifstream check(options.dump_trace + "-TELE.trace");
  EXPECT_TRUE(check.good());
}

TEST(RunCliTest, UnwritableOutputFailsBeforeTheRun) {
  const std::string bad =
      ::testing::TempDir() + "/ppsim_no_such_dir/out.ndjson";
  std::filesystem::remove_all(::testing::TempDir() + "/ppsim_no_such_dir");
  for (std::string CliOptions::*output :
       {&CliOptions::trace_out, &CliOptions::samples_out,
        &CliOptions::metrics_out, &CliOptions::spans_out,
        &CliOptions::bench_json, &CliOptions::dump_sessions,
        &CliOptions::dump_trace}) {
    auto options = tiny_options();
    options.*output = bad;
    std::ostringstream out;
    EXPECT_EQ(run_cli(options, out), 1);
    EXPECT_EQ(out.str().find("== probe"), std::string::npos) << out.str();
  }
}

TEST(RunCliTest, SpansOutAloneWritesTheSpansFile) {
  // parse_cli sets causal_trace with --spans-out; a program that calls
  // run_cli directly may set spans_out alone.
  auto options = tiny_options();
  options.minutes = 1;
  options.spans_out = ::testing::TempDir() + "/ppsim_cli_spans_only.ndjson";
  std::ostringstream out;
  ASSERT_EQ(run_cli(options, out), 0);
  EXPECT_NE(out.str().find("spans written:"), std::string::npos);

  std::ifstream spans(options.spans_out);
  std::string header;
  ASSERT_TRUE(std::getline(spans, header));
  EXPECT_EQ(header.rfind(R"({"spans_schema":"ppsim-spans-v1")", 0), 0u)
      << header;
  std::uint64_t span_count = 0;
  ASSERT_TRUE(obs::read_json_u64(header, "spans", &span_count)) << header;
  EXPECT_GT(span_count, 0u);
}

TEST(RunCliTest, FaultTimelineMatchesTheSamplesFile) {
  // The report's timeline is computed in process, ppsim-analyze's from the
  // samples file; both must read the same whole series.
  auto options = tiny_options();
  options.minutes = 10;
  options.seed = 7;
  options.fault_plan = write_ci_plan(::testing::TempDir() + "/ppsim_cli_plan");
  options.samples_out = ::testing::TempDir() + "/ppsim_cli_samples.ndjson";
  options.sample_period_s = 15;
  std::ostringstream out;
  ASSERT_EQ(run_cli(options, out), 0);

  std::ifstream samples_file(options.samples_out);
  const auto samples = obs::read_samples_ndjson(samples_file);
  ASSERT_EQ(samples.size(), 40u);
  const faults::PlanParseResult plan = faults::load_fault_plan(options.fault_plan);
  ASSERT_TRUE(plan.ok()) << plan.error;
  std::ostringstream timeline;
  faults::print_fault_timeline(timeline,
                               faults::analyze_resilience(plan.plan, samples));
  EXPECT_NE(out.str().find(timeline.str()), std::string::npos)
      << out.str() << "\nexpected:\n" << timeline.str();
}

TEST(RunCliTest, DumpTraceGivesRepeatedLabelsTheirOwnFiles) {
  // Two TELE probes, as in the paper's deployment: the second writes
  // PREFIX-TELE-2.trace instead of overwriting the first one's file.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "ppsim_cli_twin_probes";
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto options = tiny_options();
  options.probes = {"tele", "cnc", "tele"};
  options.dump_trace = (dir / "run").string();
  std::ostringstream out;
  ASSERT_EQ(run_cli(options, out), 0);

  const std::string first = options.dump_trace + "-TELE.trace";
  const std::string second = options.dump_trace + "-TELE-2.trace";
  for (const std::string& path :
       {first, second, options.dump_trace + "-CNC.trace"})
    EXPECT_NE(out.str().find("trace written: " + path + " ("),
              std::string::npos)
        << path << "\n" << out.str();
  const auto first_trace = capture::read_trace_file(first);
  const auto second_trace = capture::read_trace_file(second);
  ASSERT_TRUE(first_trace.has_value());
  ASSERT_TRUE(second_trace.has_value());
  ASSERT_FALSE(first_trace->empty());
  ASSERT_FALSE(second_trace->empty());
  // Each file is its own probe's capture.
  EXPECT_NE(first_trace->front().local, second_trace->front().local);
  fs::remove_all(dir);
}

TEST(RunCliTest, EveryTraceRowReachesEverySink) {
  // --trace-out, --postmortem-dir and --spans-out share one event stream:
  // sim_event rows reach the trace file and the flight recorder, the span
  // tracker sees every other row.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "ppsim_cli_fan_out";
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto options = tiny_options();
  options.minutes = 2;
  options.fault_plan = write_ci_plan((dir / "plan.txt").string());
  options.trace_out = (dir / "trace.ndjson").string();
  options.trace_sim_events = true;
  options.postmortem_dir = (dir / "pm").string();
  options.spans_out = (dir / "spans.ndjson").string();
  options.causal_trace = true;
  std::ostringstream out;
  ASSERT_EQ(run_cli(options, out), 0);

  const auto count_rows = [](const fs::path& path, std::uint64_t* sim_rows) {
    std::ifstream in(path);
    std::uint64_t rows = 0;
    *sim_rows = 0;
    for (std::string line; std::getline(in, line); ++rows)
      if (line.find("\"ev\":\"sim_event\"") != std::string::npos) ++*sim_rows;
    return rows;
  };
  std::uint64_t sim_rows = 0;
  const std::uint64_t rows = count_rows(options.trace_out, &sim_rows);
  EXPECT_GT(sim_rows, 0u);

  std::ifstream spans(options.spans_out);
  std::string header;
  ASSERT_TRUE(std::getline(spans, header));
  std::uint64_t span_events = 0;
  ASSERT_TRUE(obs::read_json_u64(header, "events", &span_events)) << header;
  EXPECT_EQ(span_events, rows - sim_rows);

  std::size_t bundles = 0;
  for (const auto& entry : fs::directory_iterator(options.postmortem_dir)) {
    ++bundles;
    std::uint64_t bundle_sim_rows = 0;
    count_rows(entry.path(), &bundle_sim_rows);
    EXPECT_EQ(bundle_sim_rows, obs::FlightRecorder::kRingCapacity)
        << entry.path();
  }
  EXPECT_GT(bundles, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ppsim::core
