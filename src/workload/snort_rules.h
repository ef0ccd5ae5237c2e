// Minimal Snort-style rule parser for the intrusion-detection example.
//
// The paper motivates GPU Aho-Corasick with deep packet inspection in
// Snort-class NIDS. This parser understands the subset of the rule language
// that feeds multi-pattern matching: the rule header and the content:"..."
// options (with |AB CD| hex escapes), which become the AC dictionary.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ac/pattern_set.h"

namespace acgpu::workload {

struct SnortRule {
  std::string action;    ///< alert / log / drop ...
  std::string protocol;  ///< tcp / udp / icmp / ip
  std::string message;   ///< msg:"..." option, empty if absent
  std::vector<std::string> contents;  ///< content / uricontent byte strings, decoded
  /// True when every content carries `nocase`: the option after it or its
  /// `, nocase` modifier (never text in a string). A `nocase` modifies only
  /// the content before it, so a rule with one case-sensitive content stays
  /// case-sensitive.
  bool nocase = false;
};

/// True when every rule is case-insensitive — the whole dictionary can then
/// be compiled with build_dfa_folded(ascii_fold_map()) at zero runtime cost.
bool all_nocase(const std::vector<SnortRule>& rules);

/// Parses a rule file: one rule per line, '#' comments and blank lines
/// ignored. A rule body is `name:value;` and `name;` options, split at the
/// ';' outside quoted strings. msg, content and uricontent take one quoted
/// string; a content may carry Snort 3's modifiers after a comma
/// (`content:"abc", nocase;`), and a negated content (`content:!"abc";`)
/// is skipped, since the rule needs it absent. A `nocase` option modifies the
/// content before it. Throws acgpu::Error with a line number on malformed
/// rules, among them a value that is not a quoted string, a rule without a
/// content, a content that decodes to no bytes or not at all (decode_content)
/// and a `nocase` that follows no content.
std::vector<SnortRule> parse_snort_rules(std::string_view text);

/// Flattens every content string of every rule into one PatternSet, and
/// fills `owner` (parallel to the PatternSet ids) with the rule index each
/// pattern came from, so matches can be attributed back to rules.
ac::PatternSet rules_to_patterns(const std::vector<SnortRule>& rules,
                                 std::vector<std::uint32_t>* owner);

/// Decodes a Snort content string: literal bytes plus |0A 0D| hex blocks.
/// Throws acgpu::Error on a bad hex escape or an unterminated hex block,
/// naming the rule's line when `line_no` is not 0.
std::string decode_content(std::string_view raw, std::size_t line_no = 0);

}  // namespace acgpu::workload
