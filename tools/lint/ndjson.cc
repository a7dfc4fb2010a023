#include "lint/ndjson.h"

#include <cstdio>
#include <ostream>

namespace ppsim::lint {

namespace {

// Self-contained JSON string escaping; the lint tool deliberately does not
// link src/obs (the tools layer audits src, it must not depend on it).
void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

void write_lint_ndjson(std::ostream& os, const LintRun& run) {
  os << "{\"lint_schema\":";
  write_escaped(os, kLintSchema);
  os << ",\"root\":";
  write_escaped(os, run.root);
  os << ",\"passes\":[";
  for (std::size_t i = 0; i < run.passes.size(); ++i) {
    if (i) os << ',';
    write_escaped(os, run.passes[i]);
  }
  os << "]}\n";
  for (const Finding& f : run.findings) {
    os << "{\"pass\":";
    write_escaped(os, f.pass);
    os << ",\"file\":";
    write_escaped(os, f.file);
    os << ",\"line\":" << f.line << ",\"check\":";
    write_escaped(os, f.check);
    os << ",\"token\":";
    write_escaped(os, f.token);
    os << ",\"detail\":";
    write_escaped(os, f.detail);
    os << ",\"allowlisted\":" << (f.allowlisted ? "true" : "false") << "}\n";
  }
  const LintSummary& s = run.summary;
  os << "{\"files_scanned\":" << s.files_scanned << ",\"findings\":"
     << s.findings << ",\"reported\":" << s.reported << ",\"allowlisted\":"
     << s.allowlisted << ",\"stale\":" << s.stale << "}\n";
}

}  // namespace ppsim::lint
