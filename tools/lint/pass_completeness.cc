// Pass `completeness` — cross-checks the tables that must move together,
// extending the in-file static_assert counter audit (proto/counters.h) to
// checks no compiler sees: every message struct against its own field
// list and the `Message` variant in proto/message.h, and every published
// name inventory against its docs table. Most checks are one row of
// kMirrors: two name lists that must hold the same names, both
// directions. A list is the Message variant, a struct's data members, the
// string literals of a constexpr array, or the first backticked cell of
// each table row under a docs/ heading.
//
// A row is skipped when a source file it reads is missing (fixture trees
// lack whole layers), and a doc row when the tree has no docs root. A file
// that exists but lacks a row's anchor (the variant, struct, array or
// heading), or a doc missing under the docs root, is one finding at line 1
// with the anchor as written in the row as token.
//
// The checks that need inference stay bespoke:
//
//   variant-membership  structs with a SpanContext member vs the variant
//   span-member         every variant member carries a SpanContext
//   message-fields      every data member of a variant member but `span`
//                       is in its `fields(m)` list, and every `m.<name>`
//                       that list holds is a data member: the wire codec
//                       and the capture format read and write exactly that
//                       list
//   span-doc            the span-propagation section of docs/PROTOCOL.md
//                       lists every member, and every stamped one
//   span-stamp          a `<msg>.span = SpanContext{...}` site in proto/*.cc
//                       for every type that section's table lists
//   drop-counter        every `*_drops` field of net::Transport's Stats is
//                       incremented in net/ and appears in the total-drops
//                       reconciliation in core/experiment.cc ("every packet
//                       lands in exactly one bucket")

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/passes.h"
#include "lint/text.h"

namespace ppsim::lint {

namespace {

constexpr std::string_view kPass = "completeness";

const SourceFile* find_file(const Tree& tree, std::string_view rel) {
  for (const SourceFile& f : tree.files)
    if (f.rel == rel) return &f;
  return nullptr;
}

void add(std::vector<Finding>* findings, std::string file, int line,
         std::string check, std::string token, std::string detail) {
  findings->push_back(Finding{std::string(kPass), std::move(file), line,
                              std::move(check), std::move(token),
                              std::move(detail)});
}

struct StructDecl {
  std::string name;
  int line = 0;
  std::string body;
};

std::vector<StructDecl> parse_structs(const std::string& stripped) {
  std::vector<StructDecl> out;
  std::size_t pos = 0;
  while ((pos = stripped.find("struct", pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += 6;
    if (!word_match(stripped, at, "struct")) continue;
    std::size_t i = skip_ws(stripped, at + 6);
    std::size_t end = i;
    while (end < stripped.size() && is_ident_char(stripped[end])) ++end;
    if (end == i) continue;
    const std::string name = stripped.substr(i, end - i);
    i = skip_ws(stripped, end);
    if (i >= stripped.size() || stripped[i] != '{') continue;  // fwd decl
    int depth = 0;
    std::size_t close = i;
    for (; close < stripped.size(); ++close) {
      if (stripped[close] == '{') ++depth;
      else if (stripped[close] == '}' && --depth == 0) break;
    }
    out.push_back(StructDecl{name, line_of(stripped, at),
                             stripped.substr(i + 1, close - i - 1)});
    pos = close;
  }
  return out;
}

/// Data members of a struct body: the declarator of each top-level
/// `Type name = ...;`, `Type name{...};` or `Type name;`. Member functions
/// (a `(` before any initializer), static members and everything nested
/// are skipped.
std::set<std::string> data_members(const std::string& body) {
  std::set<std::string> out;
  std::size_t begin = 0;
  int depth = 0;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (body[i] == '{') ++depth;
    if (body[i] == '}') --depth;
    if (depth > 0 || (body[i] != ';' && body[i] != '}')) continue;
    const std::string stmt = body.substr(begin, i - begin);
    begin = i + 1;
    if (contains_word(stmt, "static")) continue;
    std::size_t end = stmt.find_first_of("=({");
    if (end != std::string::npos && stmt[end] == '(') continue;
    end = std::min(end, stmt.size());
    while (end > 0 && !is_ident_char(stmt[end - 1])) --end;
    std::size_t start = end;
    while (start > 0 && is_ident_char(stmt[start - 1])) --start;
    if (start < end) out.insert(stmt.substr(start, end - start));
  }
  return out;
}

/// The names a message struct's field list reads: each `m.<name>` in the
/// body of its `fields(auto& m)`, where `m` is the parameter's name. Empty
/// when the struct has no such function.
std::set<std::string> field_list(const std::string& body) {
  std::set<std::string> out;
  std::size_t at = body.find("fields(");
  while (at != std::string::npos && !word_match(body, at, "fields"))
    at = body.find("fields(", at + 1);
  if (at == std::string::npos) return out;
  const std::size_t close = body.find(')', at);
  const std::size_t open = body.find('{', close);
  if (close == std::string::npos || open == std::string::npos) return out;
  std::size_t start = close;
  while (start > at && is_ident_char(body[start - 1])) --start;
  const std::string param = body.substr(start, close - start);
  if (param.empty()) return out;  // `fields(auto&)`: an empty list
  const std::size_t end = body.find('}', open);
  for (std::size_t i = body.find(param + ".", open); i < end;
       i = body.find(param + ".", i + 1)) {
    if (!word_match(body, i, param)) continue;
    const std::size_t name = i + param.size() + 1;
    std::size_t j = name;
    while (j < body.size() && is_ident_char(body[j])) ++j;
    out.insert(body.substr(name, j - name));
  }
  return out;
}

/// The part of `doc` from `heading` (e.g. "### Rx error counters") to the
/// next heading of the same or higher level, or empty when the heading is
/// absent. Level-1 lines do not end a section: in code blocks `# ` starts
/// a shell comment.
std::string doc_section(const std::string& doc, std::string_view heading,
                        int* line) {
  const std::size_t at = doc.find(heading);
  if (at == std::string::npos) return {};
  *line = line_of(doc, at);
  const std::size_t level = heading.find_first_not_of('#');
  std::size_t end = at;
  while ((end = doc.find("\n##", end + 1)) != std::string::npos) {
    const std::size_t text = doc.find_first_not_of('#', end + 1);
    if (text != std::string::npos && doc[text] == ' ' &&
        text - end - 1 <= level)
      break;
  }
  return doc.substr(at, end - at);  // npos - at runs to the end
}

/// First backticked name of each `| `X` | ... |` table row in `section`.
std::set<std::string> table_entries(const std::string& section) {
  std::set<std::string> out;
  std::size_t pos = 0;
  while ((pos = section.find("\n| `", pos)) != std::string::npos) {
    const std::size_t begin = pos + 4;
    const std::size_t close = section.find('`', begin);
    if (close == std::string::npos) break;
    out.insert(section.substr(begin, close - begin));
    pos = close;
  }
  return out;
}

/// The kinds of name list a cross-check can read.
enum class Kind {
  kVariant,  // `using <anchor> = std::variant<...>;` member types
  kStruct,   // data members of `struct <anchor> { ... }`
  kArray,    // string literals of `<anchor> = { "...", ... }`
  kDoc,      // first backticked cell of each table row under <anchor>
};

/// One name list: `file` is relative to the scan root, or to the docs
/// root for kDoc; `anchor` names the declaration or is the doc heading.
struct List {
  Kind kind;
  std::string_view file;
  std::string_view anchor;
};

enum class Read { kOk, kSkipped, kNoAnchor };

/// A list as read from the tree: where findings about it point, and its
/// names.
struct Names {
  Read read = Read::kOk;
  std::string file;
  int line = 1;
  std::set<std::string> names;
};

Names read_list(const Tree& tree, const List& list) {
  Names out;
  out.read = Read::kSkipped;  // no docs root, or the tree lacks the layer
  if (list.kind == Kind::kDoc) {
    if (tree.docs_root.empty()) return out;
    out.file = "docs/" + std::string(list.file);
    const auto doc = tree.docs.find(std::string(list.file));
    const std::string section =
        doc == tree.docs.end() ? ""
                               : doc_section(doc->second, list.anchor,
                                             &out.line);
    out.read = section.empty() ? Read::kNoAnchor : Read::kOk;
    out.names = table_entries(section);
    return out;
  }
  const SourceFile* f = find_file(tree, list.file);
  if (f == nullptr) return out;
  out.file = f->rel;
  out.read = Read::kNoAnchor;
  const std::string& s = f->stripped;
  if (list.kind == Kind::kStruct) {
    for (const StructDecl& d : parse_structs(s))
      if (d.name == list.anchor)
        return {Read::kOk, f->rel, d.line, data_members(d.body)};
    return out;
  }
  std::string decl(list.anchor);
  const bool variant = list.kind == Kind::kVariant;
  if (variant) decl.insert(0, "using ");
  const std::size_t at = s.find(decl);
  if (at == std::string::npos) return out;
  out.read = Read::kOk;
  out.line = line_of(s, at);
  // The variant's list runs `<...;`, an array's `{...}`.
  const std::size_t open = s.find(variant ? '<' : '{', at);
  const std::size_t close = open == std::string::npos
                                ? open
                                : s.find(variant ? ';' : '}', open);
  if (close == std::string::npos) return out;
  if (!variant) {
    // The literals come from the raw text: stripping preserves offsets.
    for (std::size_t q = f->raw.find('"', open); q < close;) {
      const std::size_t q2 = f->raw.find('"', q + 1);
      if (q2 > close) break;
      out.names.insert(f->raw.substr(q + 1, q2 - q - 1));
      q = f->raw.find('"', q2 + 1);
    }
    return out;
  }
  for (std::size_t i = open; i < close;) {
    std::size_t end = i;
    while (end < close && is_ident_char(s[end])) ++end;
    const std::string ident = s.substr(i, end - i);
    i = std::max(end, i + 1);
    if (!ident.empty() && ident != "std" && ident != "variant")
      out.names.insert(ident);
  }
  return out;
}

constexpr List kMessageVariant{Kind::kVariant, "proto/message.h", "Message"};

/// `left` and `right` must hold the same names. A name only in `left` is
/// reported at the right list's anchor and a name only in `right` at the
/// left's — unless `left_rules`: the left list is the source of truth, so
/// both kinds of drift are fixed (and reported) on the right.
struct Mirror {
  std::string_view check;
  List left;
  List right;
  bool left_rules;
};

constexpr Mirror kMirrors[] = {
    {"wire-doc", kMessageVariant,
     {Kind::kDoc, "WIRE.md", "## Packet formats"}, true},
    {"resource-gauge-doc",
     {Kind::kArray, "obs/resource_probe.h", "kResourceGaugeNames"},
     {Kind::kDoc, "OBSERVABILITY.md", "### Resource and scheduler gauges"},
     false},
    {"rx-error-export", {Kind::kStruct, "wire/udp.h", "RxErrors"},
     {Kind::kArray, "wire/udp.h", "kRxErrorBucketNames"}, true},
    {"rx-error-doc", {Kind::kArray, "wire/udp.h", "kRxErrorBucketNames"},
     {Kind::kDoc, "WIRE.md", "### Rx error counters"}, false},
    {"telemetry-record-doc",
     {Kind::kArray, "wire/telemetry.h", "kTelemetryRecordNames"},
     {Kind::kDoc, "OBSERVABILITY.md", "### Telemetry record types"}, false},
};

std::string describe(const List& list, const Names& names) {
  std::string out = "`";
  out += list.anchor;
  out += "` in ";
  out += names.file;
  return out;
}

/// True when `names` was read; otherwise reports its missing anchor.
bool anchored(const Mirror& m, const List& list, const Names& names,
              std::vector<Finding>* findings) {
  if (names.read == Read::kOk) return true;
  std::string detail = describe(list, names);
  detail += " not found; the cross-check reads its list from there";
  add(findings, names.file, 1, std::string(m.check), std::string(list.anchor),
      std::move(detail));
  return false;
}

void check_mirror(const Tree& tree, const Mirror& m,
                  std::vector<Finding>* findings) {
  const Names left = read_list(tree, m.left);
  const Names right = read_list(tree, m.right);
  if (left.read == Read::kSkipped || right.read == Read::kSkipped) return;
  const bool left_ok = anchored(m, m.left, left, findings);
  const bool right_ok = anchored(m, m.right, right, findings);
  if (!left_ok || !right_ok) return;
  const auto diff = [&](const List& from, const Names& have, const List& to,
                        const Names& lacks, const Names& at) {
    for (const std::string& name : have.names) {
      if (lacks.names.contains(name)) continue;
      std::string detail = "listed in ";
      detail += describe(from, have);
      detail += " but missing from " + describe(to, lacks);
      detail += "; both must name the same set";
      add(findings, at.file, at.line, std::string(m.check), name,
          std::move(detail));
    }
  };
  diff(m.left, left, m.right, right, right);
  diff(m.right, right, m.left, left, m.left_rules ? right : left);
}

void check_message_tables(const Tree& tree, const Names& variant,
                          std::vector<Finding>* findings) {
  const SourceFile* msg_h = find_file(tree, kMessageVariant.file);
  const std::vector<StructDecl> structs = parse_structs(msg_h->stripped);
  std::map<std::string, const StructDecl*> by_name;
  for (const StructDecl& s : structs) by_name[s.name] = &s;
  const std::set<std::string>& in_variant = variant.names;

  // variant-membership, both directions; span-member and message-fields
  // for every member.
  for (const StructDecl& s : structs) {
    if (!contains_word(s.body, "SpanContext")) continue;  // not a message
    if (!in_variant.contains(s.name))
      add(findings, msg_h->rel, s.line, "variant-membership", s.name,
          "message struct (has a SpanContext member) missing from the "
          "Message variant");
  }
  for (const std::string& name : in_variant) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      add(findings, msg_h->rel, variant.line, "variant-membership", name,
          "Message variant names a type not declared as a struct in "
          "proto/message.h");
      continue;
    }
    const StructDecl& msg = *it->second;
    if (!contains_word(msg.body, "SpanContext"))
      add(findings, msg_h->rel, msg.line, "span-member", name,
          "message struct lacks the trailing `SpanContext span{};` member "
          "every wire message carries (docs/PROTOCOL.md)");
    std::set<std::string> members = data_members(msg.body);
    members.erase("span");
    const std::set<std::string> listed = field_list(msg.body);
    for (const std::string& m : members)
      if (!listed.contains(m))
        add(findings, msg_h->rel, msg.line, "message-fields", name + "." + m,
            "data member missing from the message's fields() list; the "
            "wire codec and the capture format would drop it");
    for (const std::string& m : listed)
      if (!members.contains(m))
        add(findings, msg_h->rel, msg.line, "message-fields", name + "." + m,
            "fields() lists a name that is not a data member of the "
            "message");
  }

  // Span documentation + stamping sites.
  const auto protocol = tree.docs.find("PROTOCOL.md");
  if (protocol == tree.docs.end()) return;
  int doc_line = 1;
  const std::string section = doc_section(
      protocol->second, "## Causal span propagation", &doc_line);
  if (section.empty()) return;
  for (const std::string& name : in_variant) {
    if (section.find("`" + name + "`") == std::string::npos)
      add(findings, "docs/PROTOCOL.md", doc_line, "span-doc", name,
          "message type missing from the span-propagation section: list "
          "it in the parentage table or the explicit not-stamped note");
  }
  const std::set<std::string> stamped_per_doc = table_entries(section);
  // Stamping evidence: `X ident ...; ... ident.span =` in one proto/*.cc.
  std::set<std::string> stamped;          // any binding
  std::set<std::string> stamped_unique;   // ident bound to exactly one type
  for (const SourceFile& f : tree.files) {
    if (f.module != "proto" || !f.rel.ends_with(".cc")) continue;
    std::map<std::string, std::set<std::string>> ident_types;
    for (const std::string& name : in_variant) {
      std::size_t pos = 0;
      while ((pos = f.stripped.find(name, pos)) != std::string::npos) {
        const std::size_t at = pos;
        pos += name.size();
        if (!word_match(f.stripped, at, name)) continue;
        std::size_t i = skip_ws(f.stripped, at + name.size());
        std::size_t end = i;
        while (end < f.stripped.size() && is_ident_char(f.stripped[end]))
          ++end;
        if (end == i) continue;
        const std::size_t after = skip_ws(f.stripped, end);
        if (after < f.stripped.size() &&
            (f.stripped[after] == ';' || f.stripped[after] == '{' ||
             f.stripped[after] == '='))
          ident_types[f.stripped.substr(i, end - i)].insert(name);
      }
    }
    for (const auto& [ident, types] : ident_types) {
      if (f.stripped.find(ident + ".span") == std::string::npos &&
          collapse_ws(f.stripped).find(ident + ".span") ==
              std::string::npos)
        continue;
      for (const std::string& t : types) {
        stamped.insert(t);
        if (types.size() == 1) stamped_unique.insert(t);
      }
    }
  }
  for (const std::string& name : stamped_per_doc) {
    if (!in_variant.contains(name)) continue;  // doc rows for non-messages
    if (!stamped.contains(name))
      add(findings, msg_h->rel, by_name.contains(name) ? by_name.at(name)->line : 1,
          "span-stamp", name,
          "the span-propagation table says this message is stamped, but "
          "no `<var>.span = ...` site exists in proto/*.cc; stamp it or "
          "move it to the not-stamped note");
  }
  for (const std::string& name : stamped_unique) {
    if (!stamped_per_doc.contains(name))
      add(findings, "docs/PROTOCOL.md", doc_line, "span-doc", name,
          "message is span-stamped in proto/*.cc but missing from the "
          "span-propagation table; document its parent");
  }
}

void check_drop_counters(const Tree& tree, std::vector<Finding>* findings) {
  const Names stats =
      read_list(tree, {Kind::kStruct, "net/transport.h", "Stats"});
  if (stats.read != Read::kOk) return;
  const SourceFile* exp = find_file(tree, "core/experiment.cc");
  for (const std::string& field : stats.names) {
    if (!field.ends_with("_drops")) continue;
    const bool incremented =
        std::any_of(tree.files.begin(), tree.files.end(),
                    [&](const SourceFile& f) {
                      return f.module == "net" &&
                             collapse_ws(f.stripped)
                                     .find("++stats_." + field) !=
                                 std::string::npos;
                    });
    if (!incremented)
      add(findings, stats.file, stats.line, "drop-counter", field,
          "drop counter declared in Transport::Stats but never "
          "incremented in net/ — a drop bucket no packet can land in");
    if (exp != nullptr && !contains_word(exp->stripped, field))
      add(findings, "core/experiment.cc", 1, "drop-counter", field,
          "drop counter missing from the total-drops reconciliation in "
          "core/experiment.cc — packets landing in this bucket would "
          "escape the every-packet-lands-in-one-bucket audit");
  }
}

}  // namespace

void pass_completeness(const Tree& tree, std::vector<Finding>* findings) {
  for (const Mirror& m : kMirrors) check_mirror(tree, m, findings);
  const Names variant = read_list(tree, kMessageVariant);
  if (variant.read == Read::kOk) {
    check_message_tables(tree, variant, findings);
  }
  check_drop_counters(tree, findings);
}

}  // namespace ppsim::lint
