#include "lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "lint/passes.h"
#include "lint/text.h"

namespace fs = std::filesystem;

namespace ppsim::lint {

const std::vector<PassInfo>& passes() {
  static const std::vector<PassInfo> kPasses = {
      {"determinism",
       "wall-clock reads, hash-order iteration feeding the scheduler, "
       "pointer-keyed ordered containers",
       &pass_determinism},
      {"shared-state",
       "mutable globals, non-const static locals, static mutable data "
       "members (precondition for parallel execution)",
       &pass_shared_state},
      {"layering",
       "module DAG over the #include graph: no upward edges, no cycles",
       &pass_layering},
      {"float-order",
       "floating-point accumulation inside iteration loops in hot paths "
       "(order-dependent under parallel reduction)",
       &pass_float_order},
      {"completeness",
       "Message variant vs message field lists and docs tables, name "
       "inventories vs docs tables, drop counters vs their increments",
       &pass_completeness},
  };
  return kPasses;
}

bool load_tree(const std::string& root, const std::string& docs_root,
               Tree* tree, std::string* error) {
  std::error_code ec;
  const fs::path root_path = fs::canonical(root, ec);
  if (ec) {
    *error = "cannot open source root: " + root;
    return false;
  }
  tree->root = root_path.generic_string();
  for (auto it = fs::recursive_directory_iterator(root_path);
       it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    const fs::path& p = it->path();
    const std::string ext = p.extension().string();
    if (ext != ".h" && ext != ".hpp" && ext != ".cc" && ext != ".cpp")
      continue;
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    SourceFile f;
    f.rel = fs::relative(p, root_path).generic_string();
    f.module = f.rel.substr(0, f.rel.find('/'));
    if (f.module == f.rel) f.module.clear();  // top-level file, no module
    f.raw = ss.str();
    f.stripped = strip_comments_and_strings(f.raw);
    tree->files.push_back(std::move(f));
  }
  std::sort(tree->files.begin(), tree->files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel < b.rel;
            });
  if (!docs_root.empty()) {
    const fs::path docs_path = fs::canonical(docs_root, ec);
    if (ec) {
      *error = "cannot open docs root: " + docs_root;
      return false;
    }
    tree->docs_root = docs_path.generic_string();
    for (const auto& entry : fs::directory_iterator(docs_path)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() != ".md") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      tree->docs[entry.path().filename().string()] = ss.str();
    }
  }
  return true;
}

std::vector<Finding> run_passes(const Tree& tree,
                                const std::vector<std::string>& names,
                                std::string* error) {
  std::vector<Finding> findings;
  const auto& registry = passes();
  if (names.empty()) {
    for (const PassInfo& p : registry) p.fn(tree, &findings);
  } else {
    for (const std::string& name : names) {
      const auto it =
          std::find_if(registry.begin(), registry.end(),
                       [&](const PassInfo& p) { return p.name == name; });
      if (it == registry.end()) {
        if (error) {
          if (!error->empty()) *error += "; ";
          *error += "unknown pass: " + name;
        }
        continue;
      }
      it->fn(tree, &findings);
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.pass, a.file, a.line, a.check, a.token) <
                     std::tie(b.pass, b.file, b.line, b.check, b.token);
            });
  return findings;
}

}  // namespace ppsim::lint
