// Pass `layering` — enforces the declared module DAG over the #include
// graph. The declared layers (DESIGN.md / docs/TOOLING.md):
//
//   sim       depends on nothing (the deterministic event core)
//   net       -> sim
//   proto     -> net, sim            (protocol logic; emits via sim/trace.h)
//   analysis  -> sim
//   obs       -> net, sim            (observes; never feeds protocol back)
//   faults    -> net, obs, sim
//   workload  -> net, proto, sim
//   baseline  -> net, proto, sim
//   capture   -> analysis, net, proto, sim
//   wire      -> net, obs, proto, sim  (real-socket deployment mode)
//   core      -> everything (the composition root)
//
// Upward or undeclared edges get `illegal-include`; includes naming a
// module outside this table get `unknown-module`; and any cycle in the
// *actual* edge set (possible only via illegal edges, but reported
// separately because a cycle blocks per-layer builds outright) gets
// `layer-cycle`. The deferred ISP-sharded parallel DES (see ROADMAP) would
// split this tree by layer; every edge added here is an edge that refactor
// has to cut.

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/passes.h"
#include "lint/text.h"

namespace ppsim::lint {

namespace {

constexpr std::string_view kPass = "layering";

const std::map<std::string, std::set<std::string>>& allowed_deps() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"sim", {}},
      {"net", {"sim"}},
      {"proto", {"net", "sim"}},
      {"analysis", {"sim"}},
      {"obs", {"net", "sim"}},
      {"faults", {"net", "obs", "sim"}},
      {"workload", {"net", "proto", "sim"}},
      {"baseline", {"net", "proto", "sim"}},
      {"capture", {"analysis", "net", "proto", "sim"}},
      {"wire", {"net", "obs", "proto", "sim"}},
      {"core",
       {"analysis", "baseline", "capture", "faults", "net", "obs", "proto",
        "sim", "workload"}},
  };
  return kAllowed;
}

struct Include {
  std::string path;  // as written, e.g. "proto/message.h"
  int line = 0;
};

/// Quoted includes from raw text (string literals survive there).
std::vector<Include> quoted_includes(const std::string& raw) {
  std::vector<Include> out;
  std::size_t pos = 0;
  while ((pos = raw.find("#include", pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += 8;
    // Only at start of line (modulo whitespace).
    std::size_t bol = at;
    while (bol > 0 && raw[bol - 1] != '\n') {
      if (raw[bol - 1] != ' ' && raw[bol - 1] != '\t') break;
      --bol;
    }
    if (bol > 0 && raw[bol - 1] != '\n') continue;
    std::size_t i = skip_ws(raw, pos);
    if (i >= raw.size() || raw[i] != '"') continue;
    const std::size_t close = raw.find('"', i + 1);
    if (close == std::string::npos) continue;
    out.push_back(Include{raw.substr(i + 1, close - i - 1), line_of(raw, at)});
  }
  return out;
}

}  // namespace

void pass_layering(const Tree& tree, std::vector<Finding>* findings) {
  // module -> (dep module -> first file:line evidence)
  std::map<std::string, std::map<std::string, std::pair<std::string, int>>>
      edges;
  for (const SourceFile& f : tree.files) {
    if (f.module.empty()) continue;
    for (const Include& inc : quoted_includes(f.raw)) {
      const std::size_t slash = inc.path.find('/');
      if (slash == std::string::npos) continue;  // same-directory include
      const std::string target = inc.path.substr(0, slash);
      if (target == f.module) continue;
      const auto own = allowed_deps().find(f.module);
      if (own == allowed_deps().end()) {
        findings->push_back(Finding{
            std::string(kPass), f.rel, inc.line, "unknown-module", f.module,
            "module is not in the declared layer table; add it to "
            "tools/lint/pass_layering.cc with its allowed dependencies"});
        continue;
      }
      if (!allowed_deps().contains(target)) {
        findings->push_back(Finding{
            std::string(kPass), f.rel, inc.line, "unknown-module", target,
            "include names a module outside the declared layer table"});
        continue;
      }
      auto& mod_edges = edges[f.module];
      if (!mod_edges.contains(target))
        mod_edges[target] = {f.rel, inc.line};
      if (!own->second.contains(target)) {
        findings->push_back(Finding{
            std::string(kPass), f.rel, inc.line, "illegal-include",
            f.module + " -> " + target,
            "include edge violates the declared module DAG (" + f.module +
                " may depend on" +
                [&] {
                  std::string s;
                  for (const auto& d : own->second) s += " " + d;
                  return s.empty() ? std::string(" nothing") : s;
                }() +
                "); move the shared type down a layer or invert the "
                "dependency"});
      }
    }
  }
  // Cycle detection over the actual edges (DFS, deterministic order).
  std::set<std::string> done;
  for (const auto& [start, unused] : edges) {
    (void)unused;
    if (done.contains(start)) continue;
    std::vector<std::string> stack = {start};
    std::set<std::string> on_path = {start};
    // Iterative DFS with an explicit path so the cycle can be printed.
    std::vector<std::map<std::string, std::pair<std::string, int>>::const_iterator>
        iters = {edges[start].begin()};
    while (!stack.empty()) {
      const std::string& node = stack.back();
      auto& it = iters.back();
      if (!edges.contains(node) || it == edges.at(node).end()) {
        done.insert(node);
        on_path.erase(node);
        stack.pop_back();
        iters.pop_back();
        continue;
      }
      const std::string next = it->first;
      const auto [file, line] = it->second;
      ++it;
      if (on_path.contains(next)) {
        std::string cycle = next;
        for (auto rit = stack.rbegin(); rit != stack.rend(); ++rit) {
          cycle = *rit + " -> " + cycle;
          if (*rit == next) break;
        }
        findings->push_back(Finding{
            std::string(kPass), file, line, "layer-cycle", cycle,
            "module cycle in the #include graph: no layer order can build "
            "these independently"});
        continue;
      }
      if (done.contains(next) || !edges.contains(next)) continue;
      stack.push_back(next);
      on_path.insert(next);
      iters.push_back(edges.at(next).begin());
    }
  }
}

}  // namespace ppsim::lint
