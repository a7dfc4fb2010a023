// Pass `determinism` — the original ppsim_lint hazards, now one pass of
// the audit framework (history: this was the whole of tools/ppsim_lint.cc
// for PRs 1-5).
//
//   wall-clock     std::rand/srand, time(nullptr), std::chrono system/
//                  steady/high_resolution clocks, std::random_device,
//                  gettimeofday, ... inside the event-core modules. All
//                  randomness must flow from sim::Rng; all time from
//                  Simulator::now().
//
//   unordered-iter range-for over a std::unordered_* in a file that also
//                  holds the simulator, schedules events, allocates span
//                  ids, or writes traces — hash-order traversal feeding the
//                  scheduler makes event order depend on the hash seed /
//                  load factors.
//
//   pointer-key    std::map/std::set (or sim::FlatMap) keyed on a pointer
//                  type: iteration order is allocation-address order,
//                  which ASLR randomizes.

#include <cctype>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/passes.h"
#include "lint/text.h"

namespace ppsim::lint {

namespace {

constexpr std::string_view kPass = "determinism";

bool in_core_dirs(const SourceFile& f) {
  return f.module == "sim" || f.module == "proto" || f.module == "net" ||
         f.module == "faults" || f.module == "obs";
}

/// Collects identifiers declared with an unordered container type, e.g.
///   std::unordered_map<IpAddress, Neighbor> neighbors_;
/// Declarations from headers feed iteration checks in their .cc files, so
/// the registry is global across the scanned tree.
void collect_unordered_decls(const std::string& text,
                             std::set<std::string>* registry) {
  static const std::string_view kTypes[] = {"unordered_map", "unordered_set",
                                            "unordered_multimap",
                                            "unordered_multiset"};
  for (const auto type : kTypes) {
    std::size_t pos = 0;
    while ((pos = text.find(type, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += type.size();
      if (!word_match(text, start, type)) continue;
      std::size_t i = skip_ws(text, pos);
      if (i >= text.size() || text[i] != '<') continue;
      i = match_angle(text, i);
      if (i == std::string::npos) continue;
      i = skip_ws(text, i);
      // Declarator: identifier, possibly preceded by &/* (references to
      // unordered containers count too — iteration is equally unordered).
      while (i < text.size() && (text[i] == '&' || text[i] == '*'))
        i = skip_ws(text, i + 1);
      std::size_t end = i;
      while (end < text.size() && is_ident_char(text[end])) ++end;
      if (end > i) {
        // Function names register too — iterating over a call result is
        // just as hash-ordered as iterating the member itself.
        registry->insert(text.substr(i, end - i));
      }
    }
  }
}

void check_wall_clock(const SourceFile& f, std::vector<Finding>* findings) {
  if (!in_core_dirs(f)) return;
  static const std::string_view kBanned[] = {
      "std::rand",
      "srand",
      "time(nullptr)",
      "time(NULL)",
      "std::time",
      "system_clock",
      "high_resolution_clock",
      "steady_clock",
      "random_device",
      "gettimeofday",
      "clock_gettime",
      "getrandom",
  };
  for (const auto tok : kBanned) {
    std::size_t pos = 0;
    while ((pos = f.stripped.find(tok, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += tok.size();
      if (!word_match(f.stripped, at, tok)) continue;
      findings->push_back(Finding{
          std::string(kPass), f.rel, line_of(f.stripped, at), "wall-clock",
          std::string(tok),
          "wall-clock / ambient randomness source; use sim::Rng and "
          "Simulator::now()"});
    }
  }
  // Unqualified rand( — matched separately so `rand` inside identifiers
  // like `operand` stays quiet.
  std::size_t pos = 0;
  while ((pos = f.stripped.find("rand", pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += 4;
    if (at > 0 &&
        (is_ident_char(f.stripped[at - 1]) || f.stripped[at - 1] == ':'))
      continue;
    std::size_t i = skip_ws(f.stripped, at + 4);
    if (i < f.stripped.size() && f.stripped[i] == '(') {
      findings->push_back(Finding{std::string(kPass), f.rel,
                                  line_of(f.stripped, at), "wall-clock",
                                  "rand(", "libc rand(); use sim::Rng"});
    }
  }
}

void check_unordered_iteration(const SourceFile& f,
                               const std::set<std::string>& registry,
                               std::vector<Finding>* findings) {
  // Only files that hold the simulator (which carries the run's trace sink
  // and span counter), schedule events, allocate span ids, or emit to a
  // trace sink can convert hash order into event/span/serialization order;
  // pure data-analysis code may iterate however it likes.
  if (f.stripped.find("Simulator") == std::string::npos &&
      f.stripped.find("schedule") == std::string::npos &&
      f.stripped.find("allocate_span_id") == std::string::npos &&
      f.stripped.find("TraceSink") == std::string::npos)
    return;
  std::size_t pos = 0;
  while ((pos = f.stripped.find("for", pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += 3;
    if (!word_match(f.stripped, at, "for")) continue;
    std::size_t i = skip_ws(f.stripped, at + 3);
    if (i >= f.stripped.size() || f.stripped[i] != '(') continue;
    // Find the range-for colon at paren depth 1 (ignore `::`).
    int depth = 0;
    std::size_t colon = std::string::npos;
    std::size_t close = std::string::npos;
    for (std::size_t j = i; j < f.stripped.size(); ++j) {
      const char c = f.stripped[j];
      if (c == '(') ++depth;
      else if (c == ')') {
        if (--depth == 0) {
          close = j;
          break;
        }
      } else if (c == ':' && depth == 1) {
        const bool dbl =
            (j + 1 < f.stripped.size() && f.stripped[j + 1] == ':') ||
            (j > 0 && f.stripped[j - 1] == ':');
        if (!dbl) colon = j;
      } else if (c == ';' && depth == 1) {
        break;  // classic for(;;), not a range-for
      }
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    std::string range = f.stripped.substr(colon + 1, close - colon - 1);
    // Trailing identifier of the range expression: catches `neighbors_`,
    // `this->neighbors_`, `peer.neighbors_`; calls like `excluded_targets()`
    // end with ')', so strip one call-paren pair first.
    while (!range.empty() &&
           std::isspace(static_cast<unsigned char>(range.back())))
      range.pop_back();
    if (!range.empty() && range.back() == ')') {
      const std::size_t open = range.rfind('(');
      if (open != std::string::npos) range.erase(open);
    }
    std::size_t end = range.size();
    while (end > 0 && is_ident_char(range[end - 1])) --end;
    const std::string ident = range.substr(end);
    if (ident.empty()) continue;
    if (registry.contains(ident)) {
      findings->push_back(Finding{
          std::string(kPass), f.rel, line_of(f.stripped, at),
          "unordered-iter", ident,
          "range-for over an unordered container in a file that schedules "
          "events; iterate a deterministically ordered copy (std::map / "
          "sorted keys) instead"});
    }
  }
}

void check_pointer_keys(const SourceFile& f, std::vector<Finding>* findings) {
  static const std::string_view kTypes[] = {"std::map", "std::set",
                                            "std::multimap", "std::multiset",
                                            "FlatMap"};
  for (const auto type : kTypes) {
    std::size_t pos = 0;
    while ((pos = f.stripped.find(type, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += type.size();
      if (at > 0 && is_ident_char(f.stripped[at - 1])) continue;
      std::size_t i = skip_ws(f.stripped, pos);
      if (i >= f.stripped.size() || f.stripped[i] != '<') continue;
      // First template argument: up to a ',' or the matching '>' at depth 1.
      int depth = 0;
      std::size_t key_end = std::string::npos;
      for (std::size_t j = i; j < f.stripped.size(); ++j) {
        const char c = f.stripped[j];
        if (c == '<') ++depth;
        else if (c == '>') {
          if (--depth == 0) {
            key_end = j;
            break;
          }
        } else if (c == ',' && depth == 1) {
          key_end = j;
          break;
        } else if (c == ';' && depth == 0) {
          break;
        }
      }
      if (key_end == std::string::npos) continue;
      std::string key = f.stripped.substr(i + 1, key_end - i - 1);
      while (!key.empty() &&
             std::isspace(static_cast<unsigned char>(key.back())))
        key.pop_back();
      if (!key.empty() && key.back() == '*') {
        findings->push_back(Finding{
            std::string(kPass), f.rel, line_of(f.stripped, at), "pointer-key",
            std::string(type) + "<" + key + ">",
            "ordered container keyed on a pointer: iteration order is "
            "allocation order, which ASLR randomizes; key on a stable id"});
      }
    }
  }
}

}  // namespace

void pass_determinism(const Tree& tree, std::vector<Finding>* findings) {
  std::set<std::string> unordered_idents;
  for (const SourceFile& f : tree.files)
    collect_unordered_decls(f.stripped, &unordered_idents);
  for (const SourceFile& f : tree.files) {
    check_wall_clock(f, findings);
    check_unordered_iteration(f, unordered_idents, findings);
    check_pointer_keys(f, findings);
  }
}

}  // namespace ppsim::lint
