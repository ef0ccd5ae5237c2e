#include "kernels/device_dfa.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "kernels/match_flag.h"

namespace acgpu::kernels {

static_assert(ac::Dfa::kMaxDepth == kMaxWordDepth,
              "the host depth saturates where the device word's depth field does");

std::vector<std::uint8_t> state_target_bytes(const ac::Dfa& dfa) {
  std::vector<std::uint8_t> top(dfa.state_count());
  for (std::uint32_t s = 0; s < top.size(); ++s) {
    const auto state = static_cast<std::int32_t>(s);
    top[s] = target_byte(dfa.is_match(state), dfa.depth(state));
  }
  return top;
}

ByteClasses byte_classes(const ac::Dfa& dfa) {
  const ac::SttMatrix& stt = dfa.stt();
  // Partition refinement over the rows: cls[b] is b's class in the rows seen
  // so far, and first[c] the smallest byte of class c. A row agrees with the
  // partition when every byte's target equals its class's first byte's;
  // most rows do, and each of the few that do not splits off a new class
  // per other target it gives a class's bytes (at most 255 splits in all).
  // The same pass counts each class's trie edges, the transitions that go
  // one level deeper; a class split off inherits its parent's count so far.
  // Depths saturate, so edges past depth 127 go uncounted: the count only
  // orders the columns.
  std::array<std::uint8_t, 256> cls{};
  std::vector<std::uint8_t> first = {0};
  std::vector<std::uint64_t> edges = {0};
  std::array<std::int32_t, 256> target{};
  struct Split {
    std::uint8_t from;
    std::int32_t target;
    std::uint8_t to;
  };
  std::vector<Split> splits;
  for (std::uint32_t s = 0; s < stt.rows(); ++s) {
    const std::int32_t* next =
        stt.data() + static_cast<std::size_t>(s) * stt.pitch() + 1;
    for (std::size_t c = 0; c < first.size(); ++c) target[c] = next[first[c]];
    bool agrees = true;
    for (std::uint32_t b = 0; b < 256; ++b) agrees &= next[b] == target[cls[b]];
    if (!agrees) {
      splits.clear();
      for (std::uint32_t b = 0; b < 256; ++b) {
        const std::uint8_t c = cls[b];
        if (next[b] == target[c]) continue;
        auto it = std::find_if(splits.begin(), splits.end(), [&](const Split& x) {
          return x.from == c && x.target == next[b];
        });
        if (it == splits.end()) {
          const auto split = static_cast<std::uint8_t>(first.size());
          it = splits.insert(splits.end(), Split{c, next[b], split});
          first.push_back(static_cast<std::uint8_t>(b));
          edges.push_back(edges[c]);
          target[split] = next[b];
        }
        cls[b] = it->to;
      }
    }
    const std::uint32_t deeper = dfa.depth(static_cast<std::int32_t>(s)) + 1;
    for (std::size_t c = 0; c < first.size(); ++c)
      edges[c] += dfa.depth(target[c]) == deeper;
  }
  const std::uint32_t count = static_cast<std::uint32_t>(first.size());
  std::vector<std::uint32_t> order(count);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::tie(edges[b], first[a]) < std::tie(edges[a], first[b]);
  });

  ByteClasses out;
  out.count = count;
  std::vector<std::uint8_t> id(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    id[order[k]] = static_cast<std::uint8_t>(k);
    out.first[k] = first[order[k]];
  }
  for (std::uint32_t b = 0; b < 256; ++b) out.of_byte[b] = id[cls[b]];
  return out;
}

Status DeviceDfa::check_state_count(std::uint64_t states) {
  if (states < kMaxDeviceStates) return Status::ok();
  return Status::capacity_exceeded(
      "the DFA has " + std::to_string(states) +
      " states; device transition words address at most 2^24 - 1 = " +
      std::to_string(kMaxDeviceStates - 1));
}

std::size_t DeviceDfa::upload_bytes(const ac::Dfa& dfa, const ByteClasses& classes) {
  return std::size_t{dfa.state_count()} * classes.pitch() * 4;
}

std::size_t DeviceDfa::upload_bytes(const ac::Dfa& dfa) {
  return upload_bytes(dfa, byte_classes(dfa));
}

DeviceDfa::DeviceDfa(gpusim::DeviceMemory& mem, const ac::Dfa& dfa)
    : DeviceDfa(mem, dfa, byte_classes(dfa)) {}

DeviceDfa::DeviceDfa(gpusim::DeviceMemory& mem, const ac::Dfa& dfa,
                     const ByteClasses& classes)
    : host_dfa_(&dfa),
      classes_(classes),
      states_(dfa.state_count()),
      max_pattern_length_(dfa.max_pattern_length()),
      stt_bytes_(upload_bytes(dfa, classes)) {
  if (Status s = check_state_count(states_); !s) throw Error(s.message());
  stt_addr_ = mem.alloc(stt_bytes_);

  // Upload row by row: column k holds the transition on class k's bytes
  // with the target's flag and depth ORed in (match_flag.h); the padding
  // past the last class stays zero.
  const std::vector<std::uint8_t> top = state_target_bytes(dfa);
  std::vector<std::uint32_t> row(classes_.pitch(), 0);
  for (std::uint32_t s = 0; s < states_; ++s) {
    for (std::uint32_t k = 0; k < classes_.count; ++k) {
      const std::int32_t next =
          dfa.next(static_cast<std::int32_t>(s), classes_.first[k]);
      row[k] = encode_transition(next, top[static_cast<std::size_t>(next)]);
    }
    mem.copy_in(stt_addr_ + static_cast<std::uint64_t>(s) * row.size() * 4,
                row.data(), row.size() * 4);
  }
  texture_ =
      gpusim::Texture2D(&mem, stt_addr_, classes_.count, states_, classes_.pitch());
}

std::string ByteClasses::map(std::string_view text) const {
  std::string out(text.size(), '\0');
  std::transform(text.begin(), text.end(), out.begin(), [&](char c) {
    return static_cast<char>(of_byte[static_cast<std::uint8_t>(c)]);
  });
  return out;
}

}  // namespace acgpu::kernels
