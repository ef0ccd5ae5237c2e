#include "cpumodel/serial_timing.h"

#include "cpumodel/cache_model.h"
#include "util/error.h"

namespace acgpu::cpumodel {

CpuConfig CpuConfig::core2() { return CpuConfig{}; }

SerialEstimate estimate_serial(const ac::Dfa& dfa, std::string_view sample,
                               std::uint64_t full_text_len, const CpuConfig& config) {
  ACGPU_CHECK(!sample.empty(), "estimate_serial: empty sample");
  ACGPU_CHECK(full_text_len >= sample.size(),
              "estimate_serial: full length " << full_text_len
                  << " smaller than the sample (" << sample.size() << ")");

  SetAssocCache l1(config.l1_bytes, config.l1_line_bytes, config.l1_assoc);
  SetAssocCache l2(config.l2_bytes, config.l2_line_bytes, config.l2_assoc);

  // Address layout for the model: the paper's byte-wide STT (Dfa::byte_pitch
  // words a row: the match column, then one column per byte) occupies
  // [0, states x pitch) and the input text follows it, exactly as a real
  // process would lay them out.
  const std::uint64_t pitch_bytes = static_cast<std::uint64_t>(dfa.byte_pitch()) * 4;
  const std::uint64_t text_base = static_cast<std::uint64_t>(dfa.state_count()) * pitch_bytes;

  std::uint64_t extra_cycles = 0;
  auto touch = [&](std::uint64_t addr) {
    if (l1.access(addr)) return;
    if (l2.access(addr)) {
      extra_cycles += config.l2_hit_cycles;
      return;
    }
    extra_cycles += config.l2_hit_cycles + config.mem_cycles;
  };

  std::int32_t state = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const auto byte = static_cast<std::uint8_t>(sample[i]);
    touch(text_base + i);  // sequential input read
    const std::uint64_t row = static_cast<std::uint64_t>(state) * pitch_bytes;
    touch(row + (1 + byte) * 4);  // next-state entry
    state = dfa.next(state, byte);
    touch(static_cast<std::uint64_t>(state) * pitch_bytes);  // match column
  }

  SerialEstimate est;
  est.sampled_bytes = sample.size();
  est.cycles_per_byte =
      config.base_cycles_per_byte +
      static_cast<double>(extra_cycles) / static_cast<double>(sample.size());
  est.seconds = static_cast<double>(full_text_len) * est.cycles_per_byte /
                (config.clock_ghz * 1e9);
  est.l1_miss_rate = l1.miss_rate();
  est.l2_miss_rate = l2.miss_rate();
  return est;
}

}  // namespace acgpu::cpumodel
