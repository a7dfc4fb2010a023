// Pass `float-order` — flags floating-point accumulation inside iteration
// loops in the scheduler/protocol/network hot paths (`sim`, `proto`,
// `net`). FP addition is not associative: `acc += x` over a container is a
// different number under the reordering that parallel reduction (the
// deferred ISP-sharded parallel DES, see ROADMAP) would introduce, and a
// different number is a different same-seed run.
// Each finding must either be restructured (integer/fixed-point
// accumulation, pairwise/Kahan summation with a pinned order) or
// allowlisted with a rationale for why its order can never be re-shuffled.
//
// Mechanics: identifiers declared `double`/`float` anywhere in the tree
// (headers feed their .cc files, so the registry is global, like the
// determinism pass's unordered registry) that appear on the left of
// `+=`/`-=`/`*=` inside a `for`/`while` body.

#include <cctype>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "lint/passes.h"
#include "lint/text.h"

namespace ppsim::lint {

namespace {

constexpr std::string_view kPass = "float-order";

bool in_hot_dirs(const SourceFile& f) {
  return f.module == "sim" || f.module == "proto" || f.module == "net";
}

/// Identifiers declared with a floating-point type: `double total = 0;`,
/// `float x;`, parameters `(double lambda, ...)`. Qualified names
/// (`double Rng::pareto(`) and template args (`vector<double>`) don't
/// declare an accumulator and are skipped.
void collect_float_decls(const std::string& text,
                         std::set<std::string>* registry) {
  static const std::string_view kTypes[] = {"double", "float"};
  for (const auto type : kTypes) {
    std::size_t pos = 0;
    while ((pos = text.find(type, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += type.size();
      if (!word_match(text, at, type)) continue;
      std::size_t i = skip_ws(text, pos);
      std::size_t end = i;
      while (end < text.size() && is_ident_char(text[end])) ++end;
      if (end == i) continue;  // e.g. `vector<double>`
      const std::size_t after = skip_ws(text, end);
      if (after < text.size() &&
          (text[after] == '(' || text[after] == ':'))
        continue;  // function name or qualified definition
      registry->insert(text.substr(i, end - i));
    }
  }
}

struct Loop {
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

/// Body extents of for/while loops: `{...}` blocks or single statements.
std::vector<Loop> loop_bodies(const std::string& text) {
  std::vector<Loop> loops;
  static const std::string_view kHeads[] = {"for", "while"};
  for (const auto head : kHeads) {
    std::size_t pos = 0;
    while ((pos = text.find(head, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += head.size();
      if (!word_match(text, at, head)) continue;
      std::size_t i = skip_ws(text, pos);
      if (i >= text.size() || text[i] != '(') continue;
      int depth = 0;
      std::size_t close = std::string::npos;
      for (std::size_t j = i; j < text.size(); ++j) {
        if (text[j] == '(') ++depth;
        else if (text[j] == ')' && --depth == 0) {
          close = j;
          break;
        }
      }
      if (close == std::string::npos) continue;
      std::size_t b = skip_ws(text, close + 1);
      if (b >= text.size()) continue;
      if (text[b] == '{') {
        int bd = 0;
        std::size_t j = b;
        for (; j < text.size(); ++j) {
          if (text[j] == '{') ++bd;
          else if (text[j] == '}' && --bd == 0) break;
        }
        loops.push_back(Loop{b + 1, j});
      } else if (text[b] == ';') {
        continue;  // `while (...);` — empty body
      } else {
        const std::size_t semi = text.find(';', b);
        loops.push_back(
            Loop{b, semi == std::string::npos ? text.size() : semi});
      }
    }
  }
  return loops;
}

}  // namespace

void pass_float_order(const Tree& tree, std::vector<Finding>* findings) {
  std::set<std::string> float_idents;
  for (const SourceFile& f : tree.files)
    collect_float_decls(f.stripped, &float_idents);
  std::set<std::tuple<std::string, int, std::string>> seen;  // dedupe nests
  for (const SourceFile& f : tree.files) {
    if (!in_hot_dirs(f)) continue;
    for (const Loop& loop : loop_bodies(f.stripped)) {
      for (std::size_t i = loop.body_begin; i + 1 < loop.body_end; ++i) {
        const char c = f.stripped[i];
        if ((c != '+' && c != '-' && c != '*') ||
            f.stripped[i + 1] != '=')
          continue;
        // Left-hand identifier (possibly `obj.member` — take the member).
        std::size_t end = i;
        while (end > loop.body_begin &&
               std::isspace(static_cast<unsigned char>(f.stripped[end - 1])))
          --end;
        std::size_t begin = end;
        while (begin > loop.body_begin && is_ident_char(f.stripped[begin - 1]))
          --begin;
        const std::string ident = f.stripped.substr(begin, end - begin);
        if (ident.empty() || !float_idents.contains(ident)) continue;
        const int line = line_of(f.stripped, i);
        if (!seen.insert({f.rel, line, ident}).second) continue;
        findings->push_back(Finding{
            std::string(kPass), f.rel, line, "float-accum", ident,
            "floating-point accumulation inside an iteration loop in a hot "
            "path: the sum depends on iteration order, which parallel "
            "reduction will change; accumulate in integers/fixed-point, or "
            "allowlist with a rationale for why this order is pinned"});
      }
    }
  }
}

}  // namespace ppsim::lint
