#pragma once

// ppsim-audit — multi-pass static analysis over the simulator source tree.
//
// The simulator's contract is a total, reproducible event order: the same
// seed must yield bit-identical traces on any machine. The roadmap adds two
// more structural contracts on top: no hidden shared mutable state (the
// precondition for ISP-sharded parallel execution) and a strict module DAG
// (the precondition for carving the tree into independently buildable,
// independently schedulable layers). This framework scans the tree for
// violations of all of them, long before a flaky benchmark or a failed
// parallel-refactor would reveal them.
//
// Architecture: a registry of passes (see passes.h / registry in lint.cc),
// each a pure function over an immutable Tree snapshot producing Findings.
// The driver (driver.cc) runs one pass per ctest, applies the sectioned
// allowlist (allowlist.h), and emits human + ppsim-lint-v1 NDJSON reports
// (ndjson.h). docs/TOOLING.md is the operator's manual.

#include <map>
#include <string>
#include <vector>

namespace ppsim::lint {

/// One finding: a location, the check that fired, and the offending token.
/// (pass, file, check, token) identifies a finding across line renumbering;
/// the committed baseline (BASELINE_audit.json) compares that tuple only.
struct Finding {
  std::string pass;
  std::string file;  // path relative to the scan root, generic separators
  int line = 0;
  std::string check;
  std::string token;
  std::string detail;
  bool allowlisted = false;

  friend bool operator==(const Finding&, const Finding&) = default;
};

/// One scanned source file. `stripped` has comments and string/char
/// literals blanked with line structure preserved (see text.h), so checks
/// never fire on prose; `raw` is kept for the checks that must see string
/// literals and #include paths (layering, completeness).
struct SourceFile {
  std::string rel;     // e.g. "sim/simulator.cc"
  std::string module;  // first path component, e.g. "sim"
  std::string raw;
  std::string stripped;
};

/// Immutable snapshot of everything the passes may look at: the source
/// tree plus the docs the completeness pass cross-checks against.
struct Tree {
  std::string root;       // canonical scan root
  std::string docs_root;  // may be empty: doc cross-checks are skipped
  std::vector<SourceFile> files;            // sorted by rel
  std::map<std::string, std::string> docs;  // filename -> raw text
};

using PassFn = void (*)(const Tree&, std::vector<Finding>*);

struct PassInfo {
  std::string name;     // e.g. "shared-state"; also the allowlist section
  std::string summary;  // one line for --list-passes and docs
  PassFn fn;
};

/// The pass registry, in execution/report order.
const std::vector<PassInfo>& passes();

/// Loads .h/.hpp/.cc/.cpp files under `root` (sorted by relative path) and
/// every *.md file directly in `docs_root` when given. Returns false and
/// sets *error on an unreadable root.
bool load_tree(const std::string& root, const std::string& docs_root,
               Tree* tree, std::string* error);

/// Runs the named passes (all registered passes when `names` is empty) and
/// returns their findings sorted by (pass, file, line, check, token).
/// Unknown names are reported through *error and skipped.
std::vector<Finding> run_passes(const Tree& tree,
                                const std::vector<std::string>& names,
                                std::string* error);

}  // namespace ppsim::lint
