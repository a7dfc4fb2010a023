#pragma once

// Sectioned allowlist for the lint passes.
//
// Format (tools/lint/allowlist.txt):
//
//   # comment
//   [pass-name]
//   path:check:token     # rationale
//
// `[pass-name]` opens the section for one registered pass; entries apply
// only to findings of that pass. An entry matches a finding only when its
// section, path (relative to the scanned root), check and token all equal
// the finding's: there are no wildcards, suffixes or substrings, so a new
// finding is never excused by an entry written for another. Every entry
// must sit inside a section, and every entry must still match at least one
// finding each run — a stale entry (the hazard it excused is gone) is
// itself reported as a `stale-allowlist` finding, so the file can only
// shrink as code improves. The allowlist is the audit's one record of
// accepted findings.

#include <iosfwd>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace ppsim::lint {

struct AllowEntry {
  std::string pass;  // section the entry appeared under
  std::string path;  // relative to the scan root, like Finding::file
  std::string check;
  std::string token;
  int line = 0;  // line in the allowlist file, for stale reporting
};

struct Allowlist {
  std::vector<AllowEntry> entries;
};

/// Parses the sectioned format. Returns false and sets *error on a
/// malformed line or an entry outside any section.
bool parse_allowlist(std::istream& in, Allowlist* out, std::string* error);
bool load_allowlist(const std::string& path, Allowlist* out,
                    std::string* error);

/// Marks findings matched exactly by an entry of their own pass's section
/// as allowlisted, then appends one `stale-allowlist` finding per entry (in
/// a section of `passes_run`) that matched nothing. Stale findings carry
/// pass = the section name, file = `allowlist_name`, line = entry line.
void apply_allowlist(const Allowlist& allow,
                     const std::vector<std::string>& passes_run,
                     const std::string& allowlist_name,
                     std::vector<Finding>* findings);

}  // namespace ppsim::lint
