#pragma once

// ppsim-lint-v1 — machine-readable findings stream, one JSON object per
// line (the same NDJSON discipline as ppsim-bench-v1 / ppsim-spans-v1):
//
//   {"lint_schema":"ppsim-lint-v1","root":"src","passes":["determinism",...]}
//   {"pass":"...","file":"...","line":12,"check":"...","token":"...",
//    "detail":"...","allowlisted":false}
//   ...
//   {"files_scanned":92,"findings":3,"reported":0,"allowlisted":3,"stale":0}
//
// First line: header. Middle lines: one per finding (allowlisted ones
// included, so the stream is the full audit, not just the failures). Last
// line: summary. CI uploads the stream as the static-audit artifact;
// tests/tools_lint_test.cc pins the writer's bytes.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace ppsim::lint {

inline constexpr std::string_view kLintSchema = "ppsim-lint-v1";

struct LintSummary {
  std::uint64_t files_scanned = 0;
  std::uint64_t findings = 0;
  std::uint64_t reported = 0;     // not allowlisted (these fail the build)
  std::uint64_t allowlisted = 0;
  std::uint64_t stale = 0;        // stale-allowlist findings (also reported)
};

struct LintRun {
  std::string root;                 // scan root as given to the driver
  std::vector<std::string> passes;  // passes that ran, in order
  std::vector<Finding> findings;
  LintSummary summary;
};

void write_lint_ndjson(std::ostream& os, const LintRun& run);

}  // namespace ppsim::lint
