#include "workload/snort_rules.h"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <sstream>

#include "util/error.h"

namespace acgpu::workload {

namespace {

bool is_hex(char c) {
  return std::isxdigit(static_cast<unsigned char>(c)) != 0;
}

int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return c - 'A' + 10;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

/// One `name` or `name:value` option of a rule body, both trimmed.
struct Option {
  std::string_view name;
  std::string_view value;
};

/// Splits a rule body at the ';' that lie outside quoted strings, so text
/// inside a msg or content string is never read as an option.
std::vector<Option> body_options(std::string_view body, std::size_t line_no) {
  std::vector<Option> options;
  bool quoted = false;
  std::size_t start = 0;
  std::size_t colon = std::string_view::npos;
  for (std::size_t i = 0; i <= body.size(); ++i) {
    const char c = i < body.size() ? body[i] : ';';
    if (c == '"') quoted = !quoted;
    if (quoted) continue;
    if (c == ':' && colon == std::string_view::npos) colon = i;
    if (c != ';') continue;
    const std::size_t name_end = colon == std::string_view::npos ? i : colon;
    Option opt{trim(body.substr(start, name_end - start)), {}};
    if (colon != std::string_view::npos) opt.value = trim(body.substr(colon + 1, i - colon - 1));
    if (!opt.name.empty() || !opt.value.empty()) options.push_back(opt);
    start = i + 1;
    colon = std::string_view::npos;
  }
  ACGPU_CHECK(!quoted, "rule on line " << line_no << " has an unterminated string");
  return options;
}

/// A msg or content value: one quoted string, then (Snort 3 style, for a
/// content) the modifiers after a ',', as in `content:"abc", nocase;`.
struct QuotedValue {
  std::string_view text;       ///< between the quotes
  std::string_view modifiers;  ///< after the ',', trimmed; empty if none
};

QuotedValue quoted_value(const Option& opt, std::size_t line_no) {
  const std::string_view v = opt.value;
  const std::size_t close = v.size() >= 2 && v.front() == '"' ? v.find('"', 1)
                                                             : std::string_view::npos;
  const std::string_view rest =
      close == std::string_view::npos ? v : trim(v.substr(close + 1));
  ACGPU_CHECK(close != std::string_view::npos && (rest.empty() || rest.front() == ','),
              "rule on line " << line_no << ": " << opt.name
                              << " takes one quoted string, got '" << v << "'");
  return {v.substr(1, close - 1), rest.empty() ? rest : trim(rest.substr(1))};
}

/// Names a rule's line in an error message; line 0 names none.
struct Line {
  std::size_t no;
};

std::ostream& operator<<(std::ostream& os, Line line) {
  if (line.no != 0) os << "rule on line " << line.no << ": ";
  return os;
}

/// True when the comma-separated `modifiers` hold `name`.
bool has_modifier(std::string_view modifiers, std::string_view name) {
  while (!modifiers.empty()) {
    const std::size_t comma = std::min(modifiers.find(','), modifiers.size());
    if (trim(modifiers.substr(0, comma)) == name) return true;
    modifiers.remove_prefix(std::min(comma + 1, modifiers.size()));
  }
  return false;
}

}  // namespace

std::string decode_content(std::string_view raw, std::size_t line_no) {
  std::string out;
  bool in_hex = false;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    if (c == '|') {
      in_hex = !in_hex;
      continue;
    }
    if (!in_hex) {
      out.push_back(c);
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    ACGPU_CHECK(is_hex(c) && i + 1 < raw.size() && is_hex(raw[i + 1]),
                Line{line_no} << "bad hex escape in content '" << std::string(raw)
                              << "'");
    out.push_back(static_cast<char>(hex_val(c) * 16 + hex_val(raw[i + 1])));
    ++i;
  }
  ACGPU_CHECK(!in_hex, Line{line_no} << "unterminated |hex| block in content '"
                                     << std::string(raw) << "'");
  return out;
}

std::vector<SnortRule> parse_snort_rules(std::string_view text) {
  std::vector<SnortRule> rules;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) nl = text.size();
    std::string_view line = text.substr(start, nl - start);
    start = nl + 1;
    ++line_no;

    // Trim and skip comments/blanks.
    line = trim(line);
    if (line.empty() || line.front() == '#') continue;

    const std::size_t open = line.find('(');
    const std::size_t close = line.rfind(')');
    ACGPU_CHECK(open != std::string_view::npos && close != std::string_view::npos &&
                    open < close,
                "rule on line " << line_no << " has no (...) body");

    SnortRule rule;
    std::istringstream header{std::string(line.substr(0, open))};
    header >> rule.action >> rule.protocol;
    ACGPU_CHECK(!rule.action.empty() && !rule.protocol.empty(),
                "rule on line " << line_no << " has a malformed header");

    const std::string_view body = line.substr(open + 1, close - open - 1);
    bool has_message = false;
    // A `nocase` option modifies the content before it; one after a negated
    // content modifies text that stays out of the dictionary.
    std::vector<bool> folded;  // parallel to rule.contents
    enum class Before { kNothing, kNegated, kContent } before = Before::kNothing;
    for (const Option& opt : body_options(body, line_no)) {
      if (opt.name == "msg") {
        const std::string_view message = quoted_value(opt, line_no).text;
        if (!has_message) rule.message = message;
        has_message = true;
      } else if (opt.name == "content" || opt.name == "uricontent") {
        // A negated content (`content:!"x";`) is text the rule needs absent:
        // it never enters the dictionary.
        if (opt.value.starts_with('!')) {
          before = Before::kNegated;
          continue;
        }
        const QuotedValue value = quoted_value(opt, line_no);
        std::string content = decode_content(value.text, line_no);
        ACGPU_CHECK(!content.empty(), "rule on line " << line_no << " has an empty content");
        rule.contents.push_back(std::move(content));
        folded.push_back(has_modifier(value.modifiers, "nocase"));
        before = Before::kContent;
      } else if (opt.name == "nocase") {
        ACGPU_CHECK(before != Before::kNothing,
                    "rule on line " << line_no << ": nocase follows no content");
        if (before == Before::kContent) folded.back() = true;
      }
    }
    ACGPU_CHECK(!rule.contents.empty(),
                "rule on line " << line_no << " has no content option (nothing to match)");
    rule.nocase = std::all_of(folded.begin(), folded.end(), [](bool f) { return f; });
    rules.push_back(std::move(rule));
  }
  return rules;
}

bool all_nocase(const std::vector<SnortRule>& rules) {
  for (const auto& r : rules)
    if (!r.nocase) return false;
  return !rules.empty();
}

ac::PatternSet rules_to_patterns(const std::vector<SnortRule>& rules,
                                 std::vector<std::uint32_t>* owner) {
  std::vector<std::string> patterns;
  std::vector<std::uint32_t> owners;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    for (const auto& content : rules[r].contents) {
      patterns.push_back(content);
      owners.push_back(static_cast<std::uint32_t>(r));
    }
  }
  // No dedup: two rules may legitimately share a content string, and the
  // owner table must stay parallel to the pattern ids.
  ac::PatternSet set(std::move(patterns), /*dedup=*/false);
  if (owner) *owner = std::move(owners);
  return set;
}

}  // namespace acgpu::workload
