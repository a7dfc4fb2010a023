// ppsim_lint — driver for the ppsim-audit pass framework.
//
//   ppsim_lint <source-root> [options]
//     --pass <name>       run only this pass (repeatable; default: all)
//     --allowlist <file>  sectioned allowlist (see allowlist.h)
//     --docs <dir>        docs root for cross-checks (completeness pass)
//     --ndjson <file>     write the ppsim-lint-v1 findings stream
//     --list-passes       print the registry and exit
//     --verbose           also print allowlisted findings
//
// Exit codes: 0 clean; 1 reported findings or stale allowlist entries;
// 2 usage / IO error. Each ctest (lint_<pass>) runs one pass so a failure
// names the contract it broke.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/allowlist.h"
#include "lint/lint.h"
#include "lint/ndjson.h"

namespace {

using ppsim::lint::Finding;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <source-root> [--pass <name>]... [--allowlist <file>]\n"
               "       [--docs <dir>] [--ndjson <file>] [--list-passes]\n"
               "       [--verbose]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string docs_root;
  std::string allowlist_path;
  std::string ndjson_path;
  std::vector<std::string> pass_names;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "ppsim_lint: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--pass") {
      pass_names.push_back(value("--pass"));
    } else if (arg == "--allowlist") {
      allowlist_path = value("--allowlist");
    } else if (arg == "--docs") {
      docs_root = value("--docs");
    } else if (arg == "--ndjson") {
      ndjson_path = value("--ndjson");
    } else if (arg == "--list-passes") {
      for (const auto& p : ppsim::lint::passes())
        std::cout << p.name << "  " << p.summary << "\n";
      return 0;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ppsim_lint: unknown option " << arg << "\n";
      return usage(argv[0]);
    } else if (root.empty()) {
      root = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (root.empty()) return usage(argv[0]);

  std::string error;
  ppsim::lint::Tree tree;
  if (!ppsim::lint::load_tree(root, docs_root, &tree, &error)) {
    std::cerr << "ppsim_lint: " << error << "\n";
    return 2;
  }

  std::vector<Finding> findings =
      ppsim::lint::run_passes(tree, pass_names, &error);
  if (!error.empty()) {
    std::cerr << "ppsim_lint: " << error << "\n";
    return 2;
  }
  std::vector<std::string> ran;
  if (pass_names.empty()) {
    for (const auto& p : ppsim::lint::passes()) ran.push_back(p.name);
  } else {
    ran = pass_names;
  }

  if (!allowlist_path.empty()) {
    ppsim::lint::Allowlist allow;
    if (!ppsim::lint::load_allowlist(allowlist_path, &allow, &error)) {
      std::cerr << "ppsim_lint: " << error << "\n";
      return 2;
    }
    // Stale findings sort in with the rest below.
    ppsim::lint::apply_allowlist(allow, ran, allowlist_path, &findings);
  }

  ppsim::lint::LintRun run;
  run.root = root;
  run.passes = ran;
  run.findings = findings;
  run.summary.files_scanned = tree.files.size();
  run.summary.findings = findings.size();
  for (const Finding& f : findings) {
    if (f.allowlisted)
      ++run.summary.allowlisted;
    else
      ++run.summary.reported;
    if (f.check == "stale-allowlist") ++run.summary.stale;
  }

  if (!ndjson_path.empty()) {
    std::ofstream out(ndjson_path);
    if (!out) {
      std::cerr << "ppsim_lint: cannot write " << ndjson_path << "\n";
      return 2;
    }
    ppsim::lint::write_lint_ndjson(out, run);
  }

  // Human report: reported findings always; allowlisted under --verbose.
  for (const Finding& f : findings) {
    if (f.allowlisted && !verbose) continue;
    std::cout << f.file << ":" << f.line << ": [" << f.pass << "/" << f.check
              << "] " << f.token << (f.allowlisted ? "  (allowlisted)" : "")
              << "\n    " << f.detail << "\n";
  }

  std::ostringstream pass_list;
  for (std::size_t i = 0; i < ran.size(); ++i)
    pass_list << (i ? "," : "") << ran[i];
  std::cout << "ppsim_lint: " << run.summary.files_scanned << " files, passes="
            << pass_list.str() << ": " << run.summary.reported << " reported, "
            << run.summary.allowlisted << " allowlisted, " << run.summary.stale
            << " stale\n";
  return run.summary.reported > 0 ? 1 : 0;
}
