// Mini-NIDS: the paper's motivating application (Snort-style deep packet
// inspection). Parses a ruleset, compiles every content string into one AC
// DFA, streams synthetic "packets" through the simulated GPU in batches, and
// attributes matches back to rules — the Gnort [16] architecture in miniature.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "acgpu.h"

using namespace acgpu;

namespace {

constexpr const char* kDefaultRules = R"(# mini ruleset (Snort content subset)
alert tcp any any -> any 80  (msg:"web shell upload";    content:"cmd.exe";)
alert tcp any any -> any 80  (msg:"path traversal";      content:"../../";)
alert tcp any any -> any any (msg:"NOP sled";            content:"|90 90 90 90 90 90|";)
alert tcp any any -> any any (msg:"metasploit marker";   content:"meterpreter";)
alert udp any any -> any 53  (msg:"dns tunnel marker";   content:"dnscat";)
alert tcp any any -> any 25  (msg:"mass mailer";         content:"X-Mailer: evilbot";)
alert tcp any any -> any any (msg:"crlf injection";      content:"|0d 0a 0d 0a|"; content:"Set-Cookie";)
alert tcp any any -> any any (msg:"exe download";        content:"MZ"; content:"This program cannot";)
)";

/// Synthetic traffic: magazine text (benign payload) with attack payloads
/// planted at known offsets.
std::string make_traffic(std::size_t bytes, const std::vector<workload::SnortRule>& rules,
                         std::uint64_t seed, std::size_t* planted) {
  std::string traffic = workload::make_corpus(bytes, seed);
  Rng rng(derive_seed(seed, 1));
  *planted = 0;
  for (std::size_t i = 0; i < rules.size() * 6; ++i) {
    const auto& rule = rules[rng.next_below(rules.size())];
    for (const auto& content : rule.contents) {
      if (content.size() >= traffic.size()) continue;
      const std::size_t pos = rng.next_below(traffic.size() - content.size());
      traffic.replace(pos, content.size(), content);
      ++*planted;
    }
  }
  return traffic;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Mini intrusion-detection pipeline: Snort-style rules -> AC DFA -> "
      "simulated GPU deep packet inspection.");
  args.add_flag("rules", "path to a rule file (default: built-in 8-rule set)", "");
  args.add_flag("traffic", "bytes of synthetic traffic to inspect", "4MB");
  args.add_flag("seed", "traffic generator seed", "2024");
  if (!args.parse(argc, argv)) return 0;

  std::string rule_text = kDefaultRules;
  if (!args.get("rules").empty()) {
    std::ifstream in(args.get("rules"));
    ACGPU_CHECK(static_cast<bool>(in), "cannot open rule file " << args.get("rules"));
    std::ostringstream ss;
    ss << in.rdbuf();
    rule_text = ss.str();
  }

  const auto rules = workload::parse_snort_rules(rule_text);
  std::vector<std::uint32_t> owner;
  const ac::PatternSet patterns = workload::rules_to_patterns(rules, &owner);
  const ac::Dfa dfa = ac::build_dfa(patterns, 8);
  std::printf("loaded %zu rules (%zu content patterns) -> %u DFA states\n",
              rules.size(), patterns.size(), dfa.state_count());

  const auto traffic_bytes = static_cast<std::size_t>(args.get_bytes("traffic"));
  std::size_t planted = 0;
  const std::string traffic = make_traffic(
      traffic_bytes, rules, static_cast<std::uint64_t>(args.get_int("seed")), &planted);
  std::printf("inspecting %s of traffic (%zu payloads planted)\n",
              format_bytes(traffic.size()).c_str(), planted);

  const gpusim::GpuConfig gpu = gpusim::GpuConfig::gtx285();
  gpusim::DeviceMemory device(512 * kMiB);
  const kernels::DeviceDfa device_dfa(device, dfa);
  const gpusim::DevAddr text_addr =
      kernels::upload_class_text(device, device_dfa, traffic);

  kernels::AcLaunchSpec spec;
  spec.approach = kernels::Approach::kShared;
  spec.match_capacity = 32;
  spec.sim.mode = gpusim::SimMode::Functional;
  Stopwatch host;
  const auto out =
      kernels::run_ac_kernel(gpu, device, device_dfa, text_addr, traffic.size(), spec);
  const double host_s = host.seconds();

  // Attribute matches to rules.
  std::vector<std::uint64_t> hits(rules.size(), 0);
  for (const ac::Match& m : out.matches.matches)
    ++hits[owner[static_cast<std::size_t>(m.pattern)]];

  Table table;
  table.set_header({"rule", "action", "alerts"});
  for (std::size_t r = 0; r < rules.size(); ++r)
    table.add_row({rules[r].message, rules[r].action, std::to_string(hits[r])});
  std::printf("\n");
  table.print(std::cout);

  std::printf("\n%llu total alerts; simulated GTX 285 inspection time %s (%s Gbps); "
              "host simulation took %s\n",
              static_cast<unsigned long long>(out.matches.matches.size()),
              format_seconds(out.sim.seconds).c_str(),
              format_gbps(to_gbps(traffic.size(), out.sim.seconds)).c_str(),
              format_seconds(host_s).c_str());
  const auto serial = ac::count_matches(dfa, traffic);
  std::printf("serial cross-check: %llu matches (%s)\n",
              static_cast<unsigned long long>(serial),
              serial == out.matches.matches.size() ? "agrees" : "DISAGREES");
  return 0;
}
