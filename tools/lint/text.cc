#include "lint/text.h"

#include <algorithm>
#include <cctype>

namespace ppsim::lint {

std::string strip_comments_and_strings(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State st = State::kCode;
  // Inside a number token (one that began with a digit), where a quote is
  // a C++14 digit separator (3'600'000'000LL), not a char literal. A token
  // that began with a letter keeps its quote: u8'a' and L'x' are literals.
  bool number = false;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case State::kCode:
        if (c == '\'' && number) {
          out += c;
          break;
        }
        number = number ? is_ident_char(c) || c == '.'
                        : std::isdigit(static_cast<unsigned char>(c)) &&
                              (i == 0 || !is_ident_char(in[i - 1]));
        if (c == '/' && next == '/') {
          st = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          st = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"') {
          st = State::kString;
          out += ' ';
        } else if (c == '\'') {
          st = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          st = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          st = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out += "  ";
          ++i;
          if (i < in.size() && in[i] == '\n') out.back() = '\n';
        } else if (c == '"') {
          st = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          st = State::kCode;
          out += ' ';
        } else {
          out += ' ';
        }
        break;
    }
  }
  return out;
}

std::string blank_preprocessor_lines(const std::string& in) {
  std::string out = in;
  std::size_t i = 0;
  while (i < out.size()) {
    std::size_t j = skip_ws(out, i);
    const std::size_t eol_from = j;
    bool directive = j < out.size() && out[j] == '#';
    // Blank to end of line, honoring backslash continuations.
    std::size_t k = eol_from;
    while (k < out.size() && out[k] != '\n') ++k;
    if (directive) {
      bool cont = true;
      while (cont) {
        cont = false;
        std::size_t last = k;
        while (last > i && std::isspace(static_cast<unsigned char>(
                               out[last - 1])) && out[last - 1] != '\n')
          --last;
        if (last > i && out[last - 1] == '\\') {
          cont = true;
          if (k < out.size()) ++k;  // past the newline
          while (k < out.size() && out[k] != '\n') ++k;
        }
      }
      for (std::size_t b = i; b < k; ++b)
        if (out[b] != '\n') out[b] = ' ';
    }
    i = k < out.size() ? k + 1 : k;
  }
  return out;
}

int line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(), text.begin() +
                                             static_cast<std::ptrdiff_t>(pos),
                                         '\n'));
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool word_match(const std::string& text, std::size_t pos,
                std::string_view needle) {
  if (pos > 0 && is_ident_char(text[pos - 1])) return false;
  const std::size_t end = pos + needle.size();
  if (!needle.empty() && is_ident_char(needle.back()) && end < text.size() &&
      is_ident_char(text[end]))
    return false;
  return true;
}

bool contains_word(const std::string& text, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    if (word_match(text, pos, word)) return true;
    pos += word.size();
  }
  return false;
}

std::size_t skip_ws(const std::string& s, std::size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

std::size_t match_angle(const std::string& s, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    else if (s[i] == '>') {
      if (--depth == 0) return i + 1;
    } else if (s[i] == ';' && depth == 0) {
      return std::string::npos;
    }
  }
  return std::string::npos;
}

namespace {

/// Classifies the brace at `open` from its head: the text since the last
/// statement boundary (`;`, `{`, `}`) at the same nesting level.
ScopeKind classify_brace(const std::string& s, std::size_t head_start,
                         std::size_t open, ScopeKind parent) {
  std::string head = s.substr(head_start, open - head_start);
  if (contains_word(head, "namespace")) return ScopeKind::kNamespace;
  // Class-like head: keyword outside parentheses. `enum class E {` and
  // `struct Foo : Bar {` land here; function heads contain `(` but no
  // class keyword (`struct Foo bar() {` is rare enough to ignore).
  {
    std::string outside;
    int pdepth = 0;
    for (char c : head) {
      if (c == '(') ++pdepth;
      else if (c == ')') --pdepth;
      else if (pdepth == 0) outside += c;
    }
    if (contains_word(outside, "class") || contains_word(outside, "struct") ||
        contains_word(outside, "union") || contains_word(outside, "enum"))
      return ScopeKind::kClass;
  }
  // Braced initializer: `= {`, `{` in an argument list, `return {`, or a
  // nested init list — inherits the enclosing scope kind.
  std::size_t last = head.size();
  while (last > 0 &&
         std::isspace(static_cast<unsigned char>(head[last - 1])))
    --last;
  if (last == 0) return parent;
  const char tail = head[last - 1];
  if (tail == '=' || tail == '(' || tail == ',' || tail == '[') return parent;
  if (last >= 6 && head.compare(last - 6, 6, "return") == 0) return parent;
  // `int x{3};` — a declarator identifier directly before the brace at
  // namespace/class scope is an init, not a body.
  if (is_ident_char(tail) && parent != ScopeKind::kFunction) {
    // Function definitions end their head with ')' or identifiers like
    // `const`/`override`/`try`; those fall through to kFunction below.
    static const std::string_view kBodyTails[] = {"const",    "override",
                                                  "final",    "noexcept",
                                                  "try",      "else",
                                                  "do"};
    std::size_t ws = last;
    while (ws > 0 && is_ident_char(head[ws - 1])) --ws;
    const std::string word = head.substr(ws, last - ws);
    for (const auto t : kBodyTails)
      if (word == t) return ScopeKind::kFunction;
    if (head.find('(') == std::string::npos) return parent;
  }
  return ScopeKind::kFunction;
}

}  // namespace

std::vector<ScopeKind> scope_map(const std::string& stripped) {
  std::vector<ScopeKind> map(stripped.size(), ScopeKind::kNamespace);
  std::vector<ScopeKind> stack = {ScopeKind::kNamespace};
  std::vector<std::size_t> head_starts = {0};
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    const char c = stripped[i];
    map[i] = stack.back();
    if (c == '{') {
      const ScopeKind kind =
          classify_brace(stripped, head_starts.back(), i, stack.back());
      stack.push_back(kind);
      head_starts.back() = i + 1;
      head_starts.push_back(i + 1);
    } else if (c == '}') {
      if (stack.size() > 1) {
        stack.pop_back();
        head_starts.pop_back();
      }
      head_starts.back() = i + 1;
      map[i] = stack.back();
    } else if (c == ';') {
      head_starts.back() = i + 1;
    }
  }
  return map;
}

std::string collapse_ws(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  bool ws = false;
  for (char c : in) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      ws = true;
      continue;
    }
    if (ws && !out.empty()) out += ' ';
    ws = false;
    out += c;
  }
  return out;
}

}  // namespace ppsim::lint
