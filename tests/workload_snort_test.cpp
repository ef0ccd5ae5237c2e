#include "workload/snort_rules.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ac/dfa.h"
#include "ac/match.h"
#include "ac/naive_matcher.h"
#include "ac/serial_matcher.h"
#include "util/error.h"
#include "util/rng.h"

namespace acgpu::workload {
namespace {

constexpr const char* kRules = R"(
# Example mini ruleset
alert tcp any any -> any 80 (msg:"shellcode NOP sled"; content:"|90 90 90 90|";)
alert tcp any any -> any any (msg:"suspicious UA"; content:"evil-agent/1.0";)

log udp any any -> any 53 (msg:"dns tunnel marker"; content:"tunnel"; content:"|0d 0a|";)
)";

TEST(SnortRules, ParsesRuleFile) {
  const auto rules = parse_snort_rules(kRules);
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].action, "alert");
  EXPECT_EQ(rules[0].protocol, "tcp");
  EXPECT_EQ(rules[0].message, "shellcode NOP sled");
  EXPECT_EQ(rules[2].action, "log");
  EXPECT_EQ(rules[2].protocol, "udp");
}

TEST(SnortRules, DecodesHexContent) {
  const auto rules = parse_snort_rules(kRules);
  ASSERT_EQ(rules[0].contents.size(), 1u);
  EXPECT_EQ(rules[0].contents[0], std::string("\x90\x90\x90\x90", 4));
}

TEST(SnortRules, MultipleContentsPerRule) {
  const auto rules = parse_snort_rules(kRules);
  ASSERT_EQ(rules[2].contents.size(), 2u);
  EXPECT_EQ(rules[2].contents[0], "tunnel");
  EXPECT_EQ(rules[2].contents[1], "\r\n");
}

TEST(SnortRules, CommentsAndBlanksIgnored) {
  EXPECT_TRUE(parse_snort_rules("# just a comment\n\n   \n").empty());
}

TEST(DecodeContent, MixedLiteralAndHex) {
  EXPECT_EQ(decode_content("GET |20 2f| HTTP"), "GET  / HTTP");
  EXPECT_EQ(decode_content("plain"), "plain");
  EXPECT_EQ(decode_content("|41 42 43|"), "ABC");
}

TEST(DecodeContent, HexWhitespaceFlexible) {
  EXPECT_EQ(decode_content("|4142  43|"), "ABC");
}

TEST(DecodeContent, RejectsBadHex) {
  EXPECT_THROW(decode_content("|4g|"), Error);
  EXPECT_THROW(decode_content("|414|"), Error);   // odd nibble
  EXPECT_THROW(decode_content("|41"), Error);     // unterminated
}

TEST(SnortRules, MalformedRulesThrowWithLineInfo) {
  try {
    parse_snort_rules("alert tcp any any -> any any missing body\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  EXPECT_THROW(parse_snort_rules("alert tcp a b (msg:\"no content\";)"), Error);
}

TEST(RulesToPatterns, FlattensWithOwners) {
  const auto rules = parse_snort_rules(kRules);
  std::vector<std::uint32_t> owner;
  const ac::PatternSet set = rules_to_patterns(rules, &owner);
  ASSERT_EQ(set.size(), 4u);
  ASSERT_EQ(owner.size(), 4u);
  EXPECT_EQ(owner[0], 0u);
  EXPECT_EQ(owner[1], 1u);
  EXPECT_EQ(owner[2], 2u);
  EXPECT_EQ(owner[3], 2u);
  EXPECT_EQ(set[1], "evil-agent/1.0");
}

TEST(RulesToPatterns, NullOwnerAccepted) {
  const auto rules = parse_snort_rules(kRules);
  EXPECT_EQ(rules_to_patterns(rules, nullptr).size(), 4u);
}

TEST(SnortRules, NocaseModifierParsed) {
  const auto rules = parse_snort_rules(
      "alert tcp any any -> any any (msg:\"a\"; content:\"CmD.eXe\"; nocase;)\n"
      "alert tcp any any -> any any (msg:\"b\"; content:\"exact\";)\n");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_TRUE(rules[0].nocase);
  EXPECT_FALSE(rules[1].nocase);
  EXPECT_FALSE(all_nocase(rules));
}

TEST(SnortRules, AllNocaseEnablesFoldedDictionary) {
  const auto rules = parse_snort_rules(
      "alert tcp any any -> any any (msg:\"a\"; content:\"Attack\"; nocase;)\n"
      "alert tcp any any -> any any (msg:\"b\"; content:\"EVIL\"; nocase;)\n");
  ASSERT_TRUE(all_nocase(rules));
  const ac::PatternSet set = rules_to_patterns(rules, nullptr);
  const ac::Dfa dfa = ac::build_dfa_folded(set, ac::ascii_fold_map());
  EXPECT_EQ(ac::count_matches(dfa, "an aTTaCk by eViL actors"), 2u);
}

TEST(SnortRules, AllNocaseFalseForEmptyRuleset) {
  EXPECT_FALSE(all_nocase({}));
}

TEST(SnortRules, NocaseInsideAStringIsNotAnOption) {
  // Only a `nocase;` option folds a rule: the word in its message or
  // content is text, and the rule stays case-sensitive.
  const auto rules = parse_snort_rules(
      "alert tcp any any -> any any (msg:\"nocase bypass\"; content:\"abc\";)\n"
      "alert tcp any any -> any any (msg:\"b\"; content:\"x; nocase\";)\n");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].message, "nocase bypass");
  EXPECT_FALSE(rules[0].nocase);
  EXPECT_EQ(rules[1].contents[0], "x; nocase");
  EXPECT_FALSE(rules[1].nocase);
  EXPECT_FALSE(all_nocase(rules));
}

TEST(SnortRules, EmptyContentIsRejectedWithItsLine) {
  for (const char* content : {"\"\"", "\"||\"", "\"| |\""}) {
    try {
      parse_snort_rules(std::string("alert tcp a b (msg:\"ok\"; content:\"x\";)\n"
                                    "alert tcp a b (msg:\"m\"; content:") +
                        content + ";)\n");
      ADD_FAILURE() << "content:" << content << " parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
  }
}

TEST(SnortRules, ContentDecodeErrorsNameTheirLine) {
  for (const char* content : {"\"|4g|\"", "\"|41\""}) {
    try {
      parse_snort_rules(std::string("# c\nalert tcp a b (content:") + content + ";)\n");
      ADD_FAILURE() << "content:" << content << " parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
  }
}

TEST(SnortRules, NocaseModifiesOnlyTheContentBeforeIt) {
  const auto rules = parse_snort_rules(
      "alert tcp a b (msg:\"a\"; content:\"ABC\"; nocase; content:\"XyZ\";)\n"
      "alert tcp a b (msg:\"b\"; content:\"ABC\", nocase; content:\"XyZ\";)\n"
      "alert tcp a b (msg:\"c\"; content:\"ABC\"; content:\"XyZ\"; nocase;)\n"
      "alert tcp a b (msg:\"d\"; content:\"ABC\"; content:!\"q\"; nocase;)\n"
      "alert tcp a b (msg:\"e\"; content:\"ABC\"; nocase; content:\"XyZ\", nocase;)\n");
  ASSERT_EQ(rules.size(), 5u);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_FALSE(rules[r].nocase) << rules[r].message;
  EXPECT_TRUE(rules[4].nocase);
  // So the dictionary is not folded, and "XyZ" stays case-sensitive.
  const std::vector<SnortRule> first(rules.begin(), rules.begin() + 1);
  ASSERT_FALSE(all_nocase(first));
  const ac::Dfa dfa = ac::build_dfa(rules_to_patterns(first, nullptr));
  EXPECT_EQ(ac::count_matches(dfa, "ABC xyz XyZ"), 2u);
}

TEST(SnortRules, NocaseAfterNoContentIsRejectedWithItsLine) {
  try {
    parse_snort_rules(
        "alert tcp a b (msg:\"ok\"; content:\"x\"; nocase;)\n"
        "alert tcp a b (msg:\"m\"; nocase; content:\"abc\";)\n");
    ADD_FAILURE() << "a leading nocase parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(SnortRules, OptionValuesMustBeOneQuotedString) {
  EXPECT_THROW(parse_snort_rules("alert tcp a b (content:abc;)"), Error);
  EXPECT_THROW(parse_snort_rules("alert tcp a b (content:\"a\"b\";)"), Error);
  EXPECT_THROW(parse_snort_rules("alert tcp a b (content:\"abc;)"), Error);
  EXPECT_THROW(parse_snort_rules("alert tcp a b (content:\"abc\" nocase;)"), Error);
  EXPECT_THROW(parse_snort_rules("alert tcp a b (uricontent:abc;)"), Error);
  EXPECT_THROW(parse_snort_rules("alert tcp a b (msg:oops; content:\"abc\";)"), Error);
}

TEST(SnortRules, NegatedContentIsLeftOutOfTheDictionary) {
  // The rule needs "evil" absent: matching it would flag clean traffic.
  const auto rules = parse_snort_rules(
      "alert tcp a b (msg:\"m\"; content:!\"evil\"; content:\"good\";)\n");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].contents, std::vector<std::string>{"good"});
  // A rule of negated contents alone has nothing to match.
  EXPECT_THROW(parse_snort_rules("alert tcp a b (content:!\"evil\";)"), Error);
}

TEST(SnortRules, UricontentIsAContent) {
  const auto rules = parse_snort_rules(
      "alert tcp a b (msg:\"cgi\"; uricontent:\"/cgi-bin/|70|hf\";)\n");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].contents, std::vector<std::string>{"/cgi-bin/phf"});
}

TEST(SnortRules, Snort3ModifiersFollowTheContent) {
  const auto rules = parse_snort_rules(
      "alert http (msg:\"a\"; content:\"AbC\", offset 4, nocase;)\n"
      "alert http (msg:\"b\"; content:\"XyZ\", fast_pattern;)\n");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].contents, std::vector<std::string>{"AbC"});
  EXPECT_TRUE(rules[0].nocase);
  EXPECT_EQ(rules[1].contents, std::vector<std::string>{"XyZ"});
  EXPECT_FALSE(rules[1].nocase);
}

// --- Seeded mutations of a rule file: a clean error or an exact dictionary ---

constexpr const char* kFuzzRules = R"(# seed ruleset
alert tcp any any -> any 80 (msg:"shellcode NOP sled"; content:"|90 90 90 90|";)
alert tcp any any -> any any (msg:"mailer"; content:"X-Mailer: evilbot"; nocase;)
log udp any any -> any 53 (msg:"dns; tunnel"; content:"tunnel"; content:"|0d 0a|";)
alert tcp any any -> any any (msg:"cmd"; content:"CmD.eXe"; nocase; sid:1001;)
)";

/// Applies one to four random edits: byte deletions, insertions of rule
/// syntax, byte replacements and duplicated slices.
std::string mutate_rules(std::string text, Rng& rng) {
  static const char* const kTokens[] = {
      "\"", ";", ":", "|", "(", ")", " ", "\n", "#", "nocase;", "content:\"\";",
      "content:\"||\";", "content:\"", "msg:\"", "|0", "41|", "zz", "!", ",",
      ", nocase", "uri"};
  for (std::uint64_t n = rng.next_in(1, 4); n > 0; --n) {
    const std::size_t at = static_cast<std::size_t>(rng.next_below(text.size() + 1));
    switch (rng.next_below(4)) {
      case 0:
        text.erase(at, static_cast<std::size_t>(rng.next_in(1, 3)));
        break;
      case 1:
        text.insert(at, kTokens[rng.next_below(std::size(kTokens))]);
        break;
      case 2:
        if (at < text.size()) text[at] = static_cast<char>(rng.next_below(256));
        break;
      default: {
        const std::size_t from = static_cast<std::size_t>(rng.next_below(text.size() + 1));
        text.insert(at, text.substr(from, static_cast<std::size_t>(rng.next_in(1, 40))));
        break;
      }
    }
  }
  return text;
}

/// Random letters with every pattern planted, some of them case-flipped.
std::string traffic_for(const ac::PatternSet& patterns, Rng& rng) {
  std::string text;
  for (int i = 0; i < 64; ++i) {
    for (std::uint64_t k = rng.next_below(24); k > 0; --k)
      text.push_back(static_cast<char>('A' + rng.next_below(58)));
    std::string p(patterns[rng.next_below(patterns.size())]);
    if (rng.next_bool(0.3))
      for (auto& c : p) c = static_cast<char>(c ^ 0x20);
    text += p;
  }
  return text;
}

TEST(SnortRuleFuzz, MutatedRuleFilesThrowOrYieldExactDictionaries) {
  Rng rng(2031);
  int parsed = 0, rejected = 0;
  for (int round = 0; round < 600; ++round) {
    const std::string text = mutate_rules(kFuzzRules, rng);
    SCOPED_TRACE("round " + std::to_string(round) + ":\n" + text);
    std::vector<SnortRule> rules;
    try {
      rules = parse_snort_rules(text);
    } catch (const Error&) {
      ++rejected;
      continue;
    }
    ++parsed;
    if (rules.empty()) continue;
    // Accepted: every content is a pattern, and the dictionary compiles
    // and matches exactly what the naive matcher finds.
    ac::PatternSet patterns;
    ASSERT_NO_THROW(patterns = rules_to_patterns(rules, nullptr));
    const ac::Dfa dfa = ac::build_dfa(patterns);
    const std::string traffic = traffic_for(patterns, rng);
    std::vector<ac::Match> got = ac::find_all(dfa, traffic);
    std::vector<ac::Match> want = ac::find_all_naive(patterns, traffic);
    EXPECT_EQ(ac::normalize_matches(got), ac::normalize_matches(want));
  }
  // The mutations reach both outcomes.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace acgpu::workload
