#include "lint/allowlist.h"

#include <algorithm>
#include <cctype>
#include <fstream>

namespace ppsim::lint {

namespace {

void trim(std::string* s) {
  auto issp = [](unsigned char c) { return std::isspace(c); };
  s->erase(s->begin(), std::find_if_not(s->begin(), s->end(), issp));
  s->erase(std::find_if_not(s->rbegin(), s->rend(), issp).base(), s->end());
}

bool entry_matches(const AllowEntry& e, const Finding& f) {
  return e.pass == f.pass && e.path == f.file && e.check == f.check &&
         e.token == f.token;
}

}  // namespace

bool parse_allowlist(std::istream& in, Allowlist* out, std::string* error) {
  std::string section;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    trim(&line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        *error = "line " + std::to_string(lineno) +
                 ": unterminated section header: " + line;
        return false;
      }
      section = line.substr(1, line.size() - 2);
      trim(&section);
      if (section.empty()) {
        *error = "line " + std::to_string(lineno) + ": empty section header";
        return false;
      }
      continue;
    }
    if (section.empty()) {
      *error = "line " + std::to_string(lineno) +
               ": entry outside a [pass] section: " + line;
      return false;
    }
    const std::size_t c1 = line.find(':');
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos : line.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      *error = "line " + std::to_string(lineno) +
               ": malformed entry (want path:check:token): " + line;
      return false;
    }
    out->entries.push_back(AllowEntry{section, line.substr(0, c1),
                                      line.substr(c1 + 1, c2 - c1 - 1),
                                      line.substr(c2 + 1), lineno});
  }
  return true;
}

bool load_allowlist(const std::string& path, Allowlist* out,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "allowlist not readable: " + path;
    return false;
  }
  if (!parse_allowlist(in, out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

void apply_allowlist(const Allowlist& allow,
                     const std::vector<std::string>& passes_run,
                     const std::string& allowlist_name,
                     std::vector<Finding>* findings) {
  std::vector<bool> used(allow.entries.size(), false);
  for (Finding& f : *findings) {
    for (std::size_t i = 0; i < allow.entries.size(); ++i) {
      if (entry_matches(allow.entries[i], f)) {
        f.allowlisted = true;
        used[i] = true;
      }
    }
  }
  for (std::size_t i = 0; i < allow.entries.size(); ++i) {
    if (used[i]) continue;
    const AllowEntry& e = allow.entries[i];
    if (std::find(passes_run.begin(), passes_run.end(), e.pass) ==
        passes_run.end())
      continue;  // that pass didn't run; can't judge staleness
    findings->push_back(Finding{
        e.pass, allowlist_name, e.line, "stale-allowlist",
        e.path + ":" + e.check + ":" + e.token,
        "allowlist entry matched no finding this run; the hazard it excused "
        "is gone — delete the entry",
        false});
  }
}

}  // namespace ppsim::lint
