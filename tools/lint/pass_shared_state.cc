// Pass `shared-state` — inventory of static mutable state across the whole
// tree. ROADMAP item 6 runs whole experiments on a thread pool
// (`core::run_batch`); any mutable global, non-const static local, or
// static mutable data member is shared by every concurrent run and would
// turn into a data race (or, before that, a hidden cross-run coupling that
// silently breaks same-seed determinism).
// The inventory must be empty or explicitly rationale-allowlisted.
//
//   mutable-global  namespace-scope variable definition/declaration that is
//                   not const/constexpr (extern and constinit count: both
//                   name mutable storage).
//
//   static-local    function-scope `static`/`thread_local` without const —
//                   hidden cross-call, cross-peer state.
//
//   static-member   class-scope `static` data member without const.
//
// Heuristic scanner, not a compiler: it works off the scope classifier in
// text.h. Known accepted blind spots: `struct Foo bar() {` heads, and
// const-after-type declarators (`int* const p`), all absent from this
// codebase's style.

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "lint/passes.h"
#include "lint/text.h"

namespace ppsim::lint {

namespace {

constexpr std::string_view kPass = "shared-state";

/// Last identifier of a declaration head, ignoring array suffixes — the
/// declared name in `std::uint64_t hits[4]` or `Foo bar`.
std::string declarator_of(std::string head) {
  const std::size_t bracket = head.find('[');
  if (bracket != std::string::npos) head.erase(bracket);
  std::size_t end = head.size();
  while (end > 0 && std::isspace(static_cast<unsigned char>(head[end - 1])))
    --end;
  std::size_t begin = end;
  while (begin > 0 && is_ident_char(head[begin - 1])) --begin;
  return head.substr(begin, end - begin);
}

bool is_immutable_decl(const std::string& head) {
  // `constinit` deliberately excluded: it pins initialization order of a
  // *mutable* global. word_match keeps `const` from matching inside it.
  return contains_word(head, "const") || contains_word(head, "constexpr") ||
         contains_word(head, "consteval");
}

/// Scans namespace-scope statements for mutable variable definitions.
void check_globals(const SourceFile& f, const std::string& text,
                   const std::vector<ScopeKind>& scopes,
                   std::vector<Finding>* findings) {
  static const std::string_view kSkipLead[] = {
      "namespace", "using",  "typedef", "template",      "friend",
      "class",     "struct", "union",   "enum",          "static_assert",
      "public",    "private", "protected", "concept",    "requires"};
  std::size_t i = 0;
  while (i < text.size()) {
    i = skip_ws(text, i);
    if (i >= text.size()) break;
    if (scopes[i] != ScopeKind::kNamespace || text[i] == '}' ||
        text[i] == '{' || text[i] == ';') {
      ++i;
      continue;
    }
    // Statement head: up to the first `;` or `{` at this nesting level
    // (template args and parens skipped so `map<int, int> x;` stays one
    // statement).
    const std::size_t start = i;
    int angle = 0;
    int paren = 0;
    std::size_t end = std::string::npos;
    char terminator = '\0';
    for (std::size_t j = start; j < text.size(); ++j) {
      const char c = text[j];
      if (c == '<') ++angle;
      else if (c == '>') { if (angle > 0) --angle; }
      else if (c == '(') ++paren;
      else if (c == ')') { if (paren > 0) --paren; }
      else if ((c == ';' || c == '{') && angle == 0 && paren == 0) {
        end = j;
        terminator = c;
        break;
      } else if (c == '}') {
        end = j;
        terminator = c;
        break;
      }
    }
    if (end == std::string::npos) break;
    const std::string head = text.substr(start, end - start);
    i = end + 1;
    // Heads that open namespaces/types/functions or alias types are not
    // variable declarations.
    bool skip = head.empty();
    for (const auto lead : kSkipLead)
      if (!skip && contains_word(head, lead)) skip = true;
    if (!skip && contains_word(head, "operator")) skip = true;
    if (!skip && is_immutable_decl(head)) skip = true;
    if (!skip) {
      // A parenthesis before any `=` means a function declaration or
      // definition (`int f()`, `Foo g(int) {`); after `=` it is an
      // initializer call (`int x = f();`) and still a variable.
      const std::size_t eq = head.find('=');
      const std::size_t paren_at = head.find('(');
      if (paren_at != std::string::npos &&
          (eq == std::string::npos || paren_at < eq))
        skip = true;
    }
    if (skip) {
      // Definitions (terminator `{`) still contain declarations inside;
      // the outer while-loop keeps scanning inside them because statement
      // scanning restarts after the `{`.
      continue;
    }
    if (terminator == '}') continue;
    std::string decl = head;
    const std::size_t eq = decl.find('=');
    if (eq != std::string::npos) decl.erase(eq);
    const std::string name = declarator_of(decl);
    if (name.empty()) continue;
    findings->push_back(Finding{
        std::string(kPass), f.rel, line_of(text, start), "mutable-global",
        name,
        "namespace-scope mutable variable: shared by every future "
        "execution shard; make it const/constexpr, or move it into the "
        "simulation state that is explicitly per-run"});
  }
}

/// Scans `static` / `thread_local` keywords at function and class scope.
void check_statics(const SourceFile& f, const std::string& text,
                   const std::vector<ScopeKind>& scopes,
                   std::vector<Finding>* findings) {
  static const std::string_view kKeywords[] = {"static", "thread_local"};
  for (const auto kw : kKeywords) {
    std::size_t pos = 0;
    while ((pos = text.find(kw, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += kw.size();
      if (!word_match(text, at, kw)) continue;
      const ScopeKind scope = scopes[at];
      if (scope == ScopeKind::kNamespace) continue;  // check_globals' job
      // Declaration head: from the keyword to the first `;`, `=`, `{`, or
      // `(` outside template args. A `(` means a function declaration —
      // static member functions and local helpers hold no state.
      int angle = 0;
      std::size_t end = text.size();
      bool is_function = false;
      for (std::size_t j = at; j < text.size(); ++j) {
        const char c = text[j];
        if (c == '<') ++angle;
        else if (c == '>') { if (angle > 0) --angle; }
        else if (angle == 0 &&
                 (c == ';' || c == '=' || c == '{' || c == '(' || c == '}')) {
          is_function = c == '(';
          end = j;
          break;
        }
      }
      const std::string head = text.substr(at, end - at);
      if (is_function || is_immutable_decl(head)) continue;
      const std::string name = declarator_of(head);
      if (name.empty()) continue;
      if (scope == ScopeKind::kFunction) {
        findings->push_back(Finding{
            std::string(kPass), f.rel, line_of(text, at), "static-local",
            name,
            "non-const function-local static: hidden cross-call shared "
            "state; hoist it into an explicit per-run object or make it "
            "const"});
      } else {
        findings->push_back(Finding{
            std::string(kPass), f.rel, line_of(text, at), "static-member",
            name,
            "non-const static data member: process-wide state shared by "
            "every instance and every future shard; make it per-instance "
            "or const"});
      }
    }
  }
}

}  // namespace

void pass_shared_state(const Tree& tree, std::vector<Finding>* findings) {
  for (const SourceFile& f : tree.files) {
    const std::string text = blank_preprocessor_lines(f.stripped);
    const std::vector<ScopeKind> scopes = scope_map(text);
    check_globals(f, text, scopes, findings);
    check_statics(f, text, scopes, findings);
  }
}

}  // namespace ppsim::lint
