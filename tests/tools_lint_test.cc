// Self-tests for the ppsim-audit framework (tools/lint/): drive the pass
// registry in-process over known-bad and known-good fixture trees
// (tests/lint_fixtures/) and pin the exact findings, then exercise the
// allowlist (exact-match suppression + stale-entry reporting) and pin the
// ppsim-lint-v1 NDJSON writer's bytes.

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "lint/allowlist.h"
#include "lint/lint.h"
#include "lint/ndjson.h"
#include "lint/text.h"

namespace ppsim::lint {
namespace {

std::string fixture(const std::string& rel) {
  return std::string(PPSIM_LINT_FIXTURES_DIR) + "/" + rel;
}

Tree load(const std::string& name) {
  Tree tree;
  std::string error;
  EXPECT_TRUE(load_tree(fixture(name + "/src"), fixture(name + "/docs"),
                        &tree, &error))
      << error;
  return tree;
}

std::vector<Finding> run_all(const Tree& tree) {
  std::string error;
  std::vector<Finding> findings = run_passes(tree, {}, &error);
  EXPECT_TRUE(error.empty()) << error;
  return findings;
}

bool has(const std::vector<Finding>& findings, const std::string& file,
         int line, const std::string& check, const std::string& token) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.file == file && f.line == line && f.check == check &&
           f.token == token;
  });
}

TEST(LintRegistry, FivePassesInOrder) {
  const std::vector<PassInfo>& reg = passes();
  ASSERT_EQ(reg.size(), 5u);
  EXPECT_EQ(reg[0].name, "determinism");
  EXPECT_EQ(reg[1].name, "shared-state");
  EXPECT_EQ(reg[2].name, "layering");
  EXPECT_EQ(reg[3].name, "float-order");
  EXPECT_EQ(reg[4].name, "completeness");
  for (const PassInfo& p : reg) {
    EXPECT_NE(p.fn, nullptr);
    EXPECT_FALSE(p.summary.empty());
  }
}

TEST(LintGoodTree, NoFindings) {
  const Tree tree = load("goodtree");
  EXPECT_EQ(tree.files.size(), 9u);
  const std::vector<Finding> findings = run_all(tree);
  EXPECT_TRUE(findings.empty()) << findings.size() << " findings; first: "
                                << (findings.empty()
                                        ? ""
                                        : findings[0].file + " " +
                                              findings[0].check);
}

TEST(LintBadTree, DeterminismFindings) {
  const std::vector<Finding> f = run_all(load("badtree"));
  EXPECT_TRUE(has(f, "sim/clock.cc", 24, "wall-clock", "steady_clock"));
  EXPECT_TRUE(has(f, "sim/sched.h", 17, "unordered-iter", "pending_"));
  EXPECT_TRUE(has(f, "sim/sched.h", 27, "pointer-key", "std::map<Ev*>"));
  EXPECT_TRUE(has(f, "sim/sched.h", 28, "pointer-key", "FlatMap<Ev*>"));
  // After an odd count of digit separators (3'600'000'000LL), at its line.
  EXPECT_TRUE(has(f, "sim/hours.h", 15, "wall-clock", "system_clock"));
}

TEST(LintText, DigitSeparatorsStayInTheirNumber) {
  // A quote inside a number that began with a digit is a separator; after
  // an identifier (L, u8) it still opens a char literal, which is blanked.
  EXPECT_EQ(strip_comments_and_strings("a = 3'600'000'000LL + 0x1'F;\n"
                                       "b = L'x' + u8'y' + 'z';\n"),
            "a = 3'600'000'000LL + 0x1'F;\n"
            "b = L    + u8    +    ;\n");
}

TEST(LintBadTree, SharedStateInventory) {
  const std::vector<Finding> f = run_all(load("badtree"));
  EXPECT_TRUE(has(f, "sim/clock.cc", 10, "mutable-global", "g_tick_count"));
  EXPECT_TRUE(has(f, "sim/clock.cc", 13, "static-local", "calls"));
  EXPECT_TRUE(has(f, "sim/sched.h", 23, "static-member", "live_instances"));
}

TEST(LintBadTree, LayeringFindings) {
  const std::vector<Finding> f = run_all(load("badtree"));
  EXPECT_TRUE(has(f, "sim/clock.cc", 5, "illegal-include", "sim -> obs"));
  EXPECT_TRUE(has(f, "sim/clock.cc", 6, "unknown-module", "vendor"));
  EXPECT_TRUE(has(f, "sim/clock.cc", 5, "layer-cycle", "obs -> sim -> obs"));
}

TEST(LintBadTree, FloatOrderFindings) {
  const std::vector<Finding> f = run_all(load("badtree"));
  EXPECT_TRUE(has(f, "sim/clock.cc", 17, "float-accum", "total"));
}

TEST(LintBadTree, CompletenessFindings) {
  const std::vector<Finding> f = run_all(load("badtree"));
  // Variant / struct / span-member triangulation.
  EXPECT_TRUE(has(f, "proto/message.h", 28, "variant-membership", "Stray"));
  EXPECT_TRUE(has(f, "proto/message.h", 33, "variant-membership", "Ghost"));
  EXPECT_TRUE(has(f, "proto/message.h", 23, "span-member", "Pong"));
  // Field lists: a member the list omits and a listed name that is no
  // member. Static members (kName) and span are not fields.
  EXPECT_TRUE(has(f, "proto/message.h", 14, "message-fields", "Ping.ttl"));
  EXPECT_TRUE(has(f, "proto/message.h", 14, "message-fields", "Ping.hops"));
  EXPECT_FALSE(has(f, "proto/message.h", 14, "message-fields", "Ping.kName"));
  EXPECT_FALSE(has(f, "proto/message.h", 14, "message-fields", "Ping.span"));
  EXPECT_FALSE(has(f, "proto/message.h", 23, "message-fields", "Pong.nonce"));
  // Span docs: Ghost undocumented; Pong stamped but not in the table.
  EXPECT_TRUE(has(f, "docs/PROTOCOL.md", 3, "span-doc", "Ghost"));
  EXPECT_TRUE(has(f, "docs/PROTOCOL.md", 3, "span-doc", "Pong"));
  // Ping documented as stamped but never stamped in proto/*.cc.
  EXPECT_TRUE(has(f, "proto/message.h", 14, "span-stamp", "Ping"));
  // Drop buckets: declared-but-dead and unreconciled.
  EXPECT_TRUE(has(f, "net/transport.h", 9, "drop-counter", "ghost_drops"));
  EXPECT_TRUE(has(f, "core/experiment.cc", 1, "drop-counter", "ghost_drops"));
  // uplink_drops is live and reconciled — no finding.
  EXPECT_FALSE(has(f, "net/transport.h", 9, "drop-counter", "uplink_drops"));
  // Wire docs table: missing members and stale extras in both directions.
  EXPECT_TRUE(has(f, "docs/WIRE.md", 3, "wire-doc", "Pong"));
  EXPECT_TRUE(has(f, "docs/WIRE.md", 3, "wire-doc", "Ghost"));
  EXPECT_TRUE(has(f, "docs/WIRE.md", 3, "wire-doc", "Phantom"));
  EXPECT_FALSE(has(f, "docs/WIRE.md", 3, "wire-doc", "Ping"));
  // Resource gauges vs docs table, both directions.
  EXPECT_TRUE(has(f, "docs/OBSERVABILITY.md", 3, "resource-gauge-doc",
                  "sched_undocumented_gauge"));
  EXPECT_TRUE(has(f, "obs/resource_probe.h", 9, "resource-gauge-doc",
                  "phantom_gauge"));
  // The gauge documented and published both ways stays clean.
  EXPECT_FALSE(has(f, "docs/OBSERVABILITY.md", 3, "resource-gauge-doc",
                   "resource_rss_bytes"));
  // Rx-error buckets: struct field vs export table vs docs table.
  EXPECT_TRUE(has(f, "wire/udp.h", 20, "rx-error-export", "bad_unexported"));
  EXPECT_TRUE(has(f, "wire/udp.h", 20, "rx-error-export", "bad_ghost"));
  EXPECT_TRUE(has(f, "docs/WIRE.md", 12, "rx-error-doc", "bad_magic"));
  EXPECT_TRUE(has(f, "docs/WIRE.md", 12, "rx-error-doc", "bad_ghost"));
  EXPECT_TRUE(has(f, "wire/udp.h", 20, "rx-error-doc", "bad_doc_phantom"));
  // truncated is declared, exported and documented — no finding.
  EXPECT_FALSE(has(f, "wire/udp.h", 20, "rx-error-export", "truncated"));
  // Telemetry record inventory vs docs table, both directions.
  EXPECT_TRUE(has(f, "docs/OBSERVABILITY.md", 10, "telemetry-record-doc",
                  "Ghost"));
  EXPECT_TRUE(has(f, "wire/telemetry.h", 8, "telemetry-record-doc",
                  "Phantom"));
  EXPECT_FALSE(has(f, "docs/OBSERVABILITY.md", 10, "telemetry-record-doc",
                   "Heartbeat"));
}

TEST(LintBadTree, ExactFindingCountAndSorted) {
  const std::vector<Finding> f = run_all(load("badtree"));
  EXPECT_EQ(f.size(), 34u);
  EXPECT_TRUE(std::is_sorted(f.begin(), f.end(), [](const Finding& a,
                                                    const Finding& b) {
    return std::tie(a.pass, a.file, a.line, a.check, a.token) <
           std::tie(b.pass, b.file, b.line, b.check, b.token);
  }));
}

TEST(LintBadTree, NoDocsRootSkipsDocChecks) {
  Tree tree;
  std::string error;
  ASSERT_TRUE(load_tree(fixture("badtree/src"), "", &tree, &error)) << error;
  const std::vector<Finding> f = run_passes(tree, {"completeness"}, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(f.size(), 9u);
  for (const Finding& x : f) {
    EXPECT_FALSE(x.file.starts_with("docs/")) << x.file << " " << x.check;
    for (const char* doc_check : {"span-doc", "wire-doc", "resource-gauge-doc",
                                  "rx-error-doc", "telemetry-record-doc"})
      EXPECT_NE(x.check, doc_check) << x.token;
  }
}

// A file that exists but lacks the anchor a cross-check reads its list from
// is one finding at line 1, with the anchor as token — not a silent skip.
struct MissingAnchorCase {
  const char* name;    // test-name suffix
  const char* file;    // "docs/X.md" or a src-relative path
  const char* erase;   // text deleted from that file
  const char* check;
  const char* anchor;  // the expected token
};

void PrintTo(const MissingAnchorCase& c, std::ostream* os) { *os << c.name; }

class LintMissingAnchor : public ::testing::TestWithParam<MissingAnchorCase> {
};

TEST_P(LintMissingAnchor, IsOneFindingAtLineOne) {
  const MissingAnchorCase& c = GetParam();
  Tree tree = load("goodtree");
  const std::string file = c.file;
  const std::string erase = c.erase;
  if (file.starts_with("docs/")) {
    std::string& doc = tree.docs.at(file.substr(5));
    ASSERT_NE(doc.find(erase), std::string::npos);
    doc.erase(doc.find(erase), erase.size());
  } else {
    const auto it = std::find_if(
        tree.files.begin(), tree.files.end(),
        [&](const SourceFile& f) { return f.rel == file; });
    ASSERT_NE(it, tree.files.end());
    ASSERT_NE(it->raw.find(erase), std::string::npos);
    it->raw.erase(it->raw.find(erase), erase.size());
    it->stripped = strip_comments_and_strings(it->raw);
  }
  std::string error;
  const std::vector<Finding> f = run_passes(tree, {"completeness"}, &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(f.size(), 1u) << (f.empty() ? "" : f[0].check + " " + f[0].token);
  EXPECT_EQ(f[0].file, file);
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[0].check, c.check);
  EXPECT_EQ(f[0].token, c.anchor);
}

INSTANTIATE_TEST_SUITE_P(
    LintCompleteness, LintMissingAnchor,
    ::testing::Values(
        MissingAnchorCase{"PacketFormats", "docs/WIRE.md", "## Packet formats",
                          "wire-doc", "## Packet formats"},
        MissingAnchorCase{"RxErrorCounters", "docs/WIRE.md",
                          "### Rx error counters", "rx-error-doc",
                          "### Rx error counters"},
        MissingAnchorCase{"ResourceGauges", "docs/OBSERVABILITY.md",
                          "### Resource and scheduler gauges",
                          "resource-gauge-doc",
                          "### Resource and scheduler gauges"},
        MissingAnchorCase{"TelemetryRecords", "docs/OBSERVABILITY.md",
                          "### Telemetry record types", "telemetry-record-doc",
                          "### Telemetry record types"}),
    [](const ::testing::TestParamInfo<MissingAnchorCase>& info) {
      return std::string(info.param.name);
    });

TEST(LintBadTree, SinglePassSelection) {
  const Tree tree = load("badtree");
  std::string error;
  const std::vector<Finding> f = run_passes(tree, {"shared-state"}, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(f.size(), 3u);
  for (const Finding& x : f) EXPECT_EQ(x.pass, "shared-state");
}

TEST(LintBadTree, UnknownPassReportsError) {
  const Tree tree = load("badtree");
  std::string error;
  run_passes(tree, {"no-such-pass"}, &error);
  EXPECT_FALSE(error.empty());
}

TEST(LintAllowlist, SuppressesMatchedFindingsOnly) {
  std::istringstream in(
      "# rationale\n"
      "[shared-state]\n"
      "sim/clock.cc:mutable-global:g_tick_count\n"
      "[float-order]\n"
      "sim/clock.cc:float-accum:total\n");
  Allowlist allow;
  std::string error;
  ASSERT_TRUE(parse_allowlist(in, &allow, &error)) << error;
  ASSERT_EQ(allow.entries.size(), 2u);

  std::vector<Finding> f = run_all(load("badtree"));
  apply_allowlist(allow, {"determinism", "shared-state", "layering",
                          "float-order", "completeness"},
                  "allow.txt", &f);
  int allowlisted = 0;
  for (const Finding& x : f)
    if (x.allowlisted) ++allowlisted;
  EXPECT_EQ(allowlisted, 2);  // the global + the float-accum, nothing else
  // A shared-state entry never suppresses another pass's finding at the
  // same location/token.
  for (const Finding& x : f) {
    if (x.check == "static-local") {
      EXPECT_FALSE(x.allowlisted);
    }
  }
  // No stale entries: every entry matched.
  for (const Finding& x : f) EXPECT_NE(x.check, "stale-allowlist");
}

// An entry names one finding exactly: a token that merely starts the
// finding's token excuses nothing, and the entry is stale.
TEST(LintAllowlist, TokenMustMatchExactly) {
  std::istringstream in(
      "[float-order]\n"
      "sim/clock.cc:float-accum:total\n");
  Allowlist allow;
  std::string error;
  ASSERT_TRUE(parse_allowlist(in, &allow, &error)) << error;
  std::vector<Finding> f = {Finding{"float-order", "sim/clock.cc", 17,
                                    "float-accum", "total_weight", "", false}};
  apply_allowlist(allow, {"float-order"}, "allow.txt", &f);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].token, "total_weight");
  EXPECT_FALSE(f[0].allowlisted);
  EXPECT_EQ(f[1].check, "stale-allowlist");
  EXPECT_EQ(f[1].token, "sim/clock.cc:float-accum:total");
}

// The path is the finding's path relative to the scan root, not a suffix
// of it.
TEST(LintAllowlist, PathMustMatchExactly) {
  std::istringstream in(
      "[float-order]\n"
      "clock.cc:float-accum:total\n");
  Allowlist allow;
  std::string error;
  ASSERT_TRUE(parse_allowlist(in, &allow, &error)) << error;
  std::vector<Finding> f = run_passes(load("badtree"), {"float-order"},
                                      &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(has(f, "sim/clock.cc", 17, "float-accum", "total"));
  apply_allowlist(allow, {"float-order"}, "allow.txt", &f);
  for (const Finding& x : f) EXPECT_FALSE(x.allowlisted) << x.token;
  EXPECT_TRUE(has(f, "allow.txt", 2, "stale-allowlist",
                  "clock.cc:float-accum:total"));
}

TEST(LintAllowlist, StaleEntryIsReported) {
  std::istringstream in(
      "[determinism]\n"
      "sim/gone.cc:wall-clock:time\n");
  Allowlist allow;
  std::string error;
  ASSERT_TRUE(parse_allowlist(in, &allow, &error)) << error;

  std::vector<Finding> f = run_all(load("badtree"));
  const std::size_t before = f.size();
  apply_allowlist(allow, {"determinism"}, "allow.txt", &f);
  ASSERT_EQ(f.size(), before + 1);
  const auto it =
      std::find_if(f.begin(), f.end(),
                   [](const Finding& x) { return x.check == "stale-allowlist"; });
  ASSERT_NE(it, f.end());
  EXPECT_EQ(it->pass, "determinism");
  EXPECT_EQ(it->file, "allow.txt");
  EXPECT_EQ(it->line, 2);
  EXPECT_EQ(it->token, "sim/gone.cc:wall-clock:time");
  EXPECT_FALSE(it->allowlisted);
}

TEST(LintAllowlist, StaleEntryIgnoredWhenItsPassDidNotRun) {
  std::istringstream in(
      "[determinism]\n"
      "sim/gone.cc:wall-clock:time\n");
  Allowlist allow;
  std::string error;
  ASSERT_TRUE(parse_allowlist(in, &allow, &error)) << error;
  std::vector<Finding> f;
  apply_allowlist(allow, {"layering"}, "allow.txt", &f);
  EXPECT_TRUE(f.empty());
}

TEST(LintAllowlist, EntryOutsideSectionIsAnError) {
  std::istringstream in("sim/clock.cc:wall-clock:steady_clock\n");
  Allowlist allow;
  std::string error;
  EXPECT_FALSE(parse_allowlist(in, &allow, &error));
  EXPECT_FALSE(error.empty());
}

TEST(LintAllowlist, MalformedEntryIsAnError) {
  std::istringstream in(
      "[determinism]\n"
      "just-a-path-no-colons\n");
  Allowlist allow;
  std::string error;
  EXPECT_FALSE(parse_allowlist(in, &allow, &error));
}

TEST(LintNdjson, WritesPinnedBytes) {
  LintRun run;
  run.root = "src";
  run.passes = {"determinism", "shared-state"};
  run.findings.push_back(Finding{"determinism", "sim/clock.cc", 24,
                                 "wall-clock", "steady_clock",
                                 "detail with \"quotes\", \\ and \x01\t",
                                 true});
  run.findings.push_back(
      Finding{"shared-state", "sim/sched.h", 23, "static-member",
              "live_instances", "plain detail", false});
  run.summary.files_scanned = 10;
  run.summary.findings = 2;
  run.summary.reported = 1;
  run.summary.allowlisted = 1;
  run.summary.stale = 0;

  std::ostringstream out;
  write_lint_ndjson(out, run);
  EXPECT_EQ(out.str(),
            "{\"lint_schema\":\"ppsim-lint-v1\",\"root\":\"src\","
            "\"passes\":[\"determinism\",\"shared-state\"]}\n"
            "{\"pass\":\"determinism\",\"file\":\"sim/clock.cc\",\"line\":24,"
            "\"check\":\"wall-clock\",\"token\":\"steady_clock\","
            "\"detail\":\"detail with \\\"quotes\\\", \\\\ and "
            "\\u0001\\t\",\"allowlisted\":true}\n"
            "{\"pass\":\"shared-state\",\"file\":\"sim/sched.h\",\"line\":23,"
            "\"check\":\"static-member\",\"token\":\"live_instances\","
            "\"detail\":\"plain detail\",\"allowlisted\":false}\n"
            "{\"files_scanned\":10,\"findings\":2,\"reported\":1,"
            "\"allowlisted\":1,\"stale\":0}\n");
}

}  // namespace
}  // namespace ppsim::lint
