#include "ac/dfa.h"

#include <algorithm>
#include <bitset>
#include <istream>
#include <numeric>
#include <ostream>
#include <tuple>

#include "util/error.h"

namespace acgpu::ac {

ByteMap identity_byte_map() {
  ByteMap map{};
  for (int b = 0; b < 256; ++b) map[b] = static_cast<std::uint8_t>(b);
  return map;
}

ByteMap ascii_fold_map() {
  ByteMap map = identity_byte_map();
  for (int b = 'A'; b <= 'Z'; ++b) map[b] = static_cast<std::uint8_t>(b - 'A' + 'a');
  return map;
}

namespace {

/// Numbers groups of bytes as classes by the trie edges each group labels,
/// most first, ties to the group with the smaller first byte. group[b] is
/// byte b's group; first[g] and edges[g] are group g's smallest byte and
/// edge count.
ByteClasses number_classes(const std::array<std::uint8_t, 256>& group,
                           const std::vector<std::uint8_t>& first,
                           const std::vector<std::uint64_t>& edges) {
  const auto count = static_cast<std::uint32_t>(first.size());
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
  for (std::uint32_t b = 0; b < 256; ++b) out.of_byte[b] = id[group[b]];
  return out;
}

}  // namespace

Dfa::Dfa(const Automaton& automaton, const PatternSet& patterns,
         std::uint32_t pad_pitch_to, const std::optional<ByteMap>& byte_map)
    : byte_pitch_(SttMatrix::padded_pitch(pad_pitch_to)) {
  const Trie& trie = automaton.trie();
  const std::size_t states = automaton.state_count();
  const ByteMap map = byte_map.value_or(identity_byte_map());

  // Classes come from the trie: every state sends a byte whose mapped value
  // labels no edge to the root, and two distinct labels already part at the
  // root, so each label is a class and the other bytes make one more.
  std::array<std::uint64_t, 256> edges{};
  std::bitset<256> label;
  for (std::size_t s = 0; s < states; ++s)
    for (const auto& [byte, child] : trie.children(static_cast<State>(s))) {
      label.set(byte);
      edges[byte] += trie.depth(child) <= kMaxDepth;
    }
  // Group the bytes by the label they map to (key 256: none), numbered in
  // order of their smallest byte.
  std::array<std::int16_t, 257> group_of_key;
  group_of_key.fill(-1);
  std::array<std::uint8_t, 256> group{};
  std::vector<std::uint8_t> first;
  std::vector<std::uint64_t> group_edges;
  for (std::uint32_t b = 0; b < 256; ++b) {
    const std::uint32_t key = label[map[b]] ? map[b] : 256;
    if (group_of_key[key] < 0) {
      group_of_key[key] = static_cast<std::int16_t>(first.size());
      first.push_back(static_cast<std::uint8_t>(b));
      group_edges.push_back(key < 256 ? edges[key] : 0);
    }
    group[b] = static_cast<std::uint8_t>(group_of_key[key]);
  }
  classes_ = number_classes(group, first, group_edges);
  std::array<std::uint8_t, 256> class_of_label{};
  for (std::uint32_t x = 0; x < 256; ++x)
    if (label[x])
      class_of_label[x] = classes_.of_byte[first[static_cast<std::size_t>(group_of_key[x])]];

  // δ(s, c): child when the goto edge exists, otherwise δ(f(s), c). So each
  // row is its failure state's row with its goto edges written over it;
  // filling in BFS order makes that row available before it is copied
  // (failure links point strictly shallower). The root's row defaults to 0.
  const std::uint32_t width = classes_.count;
  rows_.assign(states * width, 0);
  for (State s : automaton.bfs_order()) {
    std::int32_t* out = rows_.data() + static_cast<std::size_t>(s) * width;
    if (s != 0) std::copy_n(row(automaton.fail(s)), width, out);
    for (const auto& [byte, child] : trie.children(s)) out[class_of_label[byte]] = child;
  }

  // Output sets: assign compact output ids to match states (0 = non-match);
  // the CSR stores the pattern lists.
  output_id_.assign(states, 0);
  out_begin_ = {0, 0};  // id 0: empty set
  for (State s : automaton.bfs_order()) {
    if (!automaton.has_output(s)) continue;
    const auto ids = automaton.output(s);
    output_id_[static_cast<std::size_t>(s)] =
        static_cast<std::int32_t>(out_begin_.size() - 1);
    out_ids_.insert(out_ids_.end(), ids.begin(), ids.end());
    out_begin_.push_back(static_cast<std::uint32_t>(out_ids_.size()));
  }

  pattern_lengths_.reserve(patterns.size());
  for (std::size_t id = 0; id < patterns.size(); ++id)
    pattern_lengths_.push_back(patterns.length(id));
  max_pattern_length_ = patterns.max_length();

  depth_.resize(states);
  for (std::size_t s = 0; s < states; ++s)
    depth_[s] = static_cast<std::uint8_t>(
        std::min(trie.depth(static_cast<State>(s)), kMaxDepth));
}

std::string ByteClasses::map(std::string_view text) const {
  std::string out(text.size(), '\0');
  std::transform(text.begin(), text.end(), out.begin(), [&](char c) {
    return static_cast<char>(of_byte[static_cast<std::uint8_t>(c)]);
  });
  return out;
}

namespace {

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  ACGPU_CHECK(in.good(), "Dfa::load: truncated stream");
  return v;
}

template <typename T>
void write_vec(std::ostream& out, const std::vector<T>& v) {
  write_u32(out, static_cast<std::uint32_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> read_vec(std::istream& in) {
  const std::uint32_t n = read_u32(in);
  // Validate the declared size against the actual stream length so a
  // corrupt count cannot trigger an absurd allocation.
  const auto pos = in.tellg();
  if (pos >= 0) {
    in.seekg(0, std::ios::end);
    const std::uint64_t remaining = static_cast<std::uint64_t>(in.tellg() - pos);
    in.seekg(pos);
    ACGPU_CHECK(static_cast<std::uint64_t>(n) * sizeof(T) <= remaining,
                "Dfa::load: vector of " << n << " elements exceeds the stream");
  }
  std::vector<T> v(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(T)));
  ACGPU_CHECK(in.good(), "Dfa::load: truncated vector body");
  return v;
}

constexpr char kMagic[8] = {'A', 'C', 'D', 'F', 'A', '0', '0', '1'};

/// Shortest-path length from the root to every state over the STT's
/// transition columns, saturated at Dfa::kMaxDepth. In an AC DFA that is
/// the trie depth. A state no input reaches never runs, and gets
/// kMaxDepth, which never lets a kernel lane leave its scan early.
std::vector<std::uint8_t> bfs_depths(const SttMatrix& stt) {
  const std::uint32_t states = stt.rows();
  std::vector<std::uint8_t> depth(states, static_cast<std::uint8_t>(Dfa::kMaxDepth));
  std::vector<bool> seen(states, false);
  std::vector<std::uint32_t> queue{0};
  seen[0] = true;
  depth[0] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t s = queue[head];
    const auto next_depth = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(depth[s] + 1u, Dfa::kMaxDepth));
    for (std::uint32_t c = 1; c < SttMatrix::kColumns; ++c) {
      const auto t = static_cast<std::uint32_t>(stt.at(s, c));
      if (seen[t]) continue;
      seen[t] = true;
      depth[t] = next_depth;
      queue.push_back(t);
    }
  }
  return depth;
}

/// The byte classes of a loaded byte-wide table, by partition refinement
/// over its rows: cls[b] is b's class in the rows seen so far, and first[c]
/// the smallest byte of class c. A row agrees with the partition when every
/// byte's target equals its class's first byte's; most rows do, and each of
/// the few that do not splits off a new class per other target it gives a
/// class's bytes (at most 255 splits in all). The same pass counts each
/// class's trie edges, the transitions one level deeper by `depth`; a class
/// split off inherits its parent's count so far. Depths saturate, so edges
/// past depth 127 go uncounted, as in Dfa's constructor: the count only
/// orders the columns.
ByteClasses refine_classes(const SttMatrix& stt, const std::vector<std::uint8_t>& depth) {
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
    const std::uint32_t deeper = depth[s] + 1u;
    for (std::size_t c = 0; c < first.size(); ++c)
      edges[c] += depth[static_cast<std::size_t>(target[c])] == deeper;
  }
  return number_classes(cls, first, edges);
}

}  // namespace

void Dfa::save(std::ostream& out) const {
  out.write(kMagic, sizeof kMagic);
  // Each row expanded to the byte-wide layout: output id, then the
  // transition on every byte; SttMatrix writes the padding as zeros.
  SttMatrix::save_rows(out, state_count(), byte_pitch_,
                       [&](std::uint32_t s, std::int32_t* words) {
                         const auto state = static_cast<std::int32_t>(s);
                         words[0] = output_id(state);
                         for (std::uint32_t b = 0; b < 256; ++b)
                           words[SttMatrix::column_for_byte(static_cast<std::uint8_t>(b))] =
                               next(state, static_cast<std::uint8_t>(b));
                       });
  write_vec(out, out_begin_);
  write_vec(out, out_ids_);
  write_vec(out, pattern_lengths_);
  write_u32(out, max_pattern_length_);
  ACGPU_CHECK(out.good(), "Dfa::save: stream write failed");
}

Dfa Dfa::load(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof magic);
  ACGPU_CHECK(in.good() && std::equal(magic, magic + 8, kMagic), "Dfa::load: bad magic");
  Dfa dfa;
  const SttMatrix stt = SttMatrix::load(in);
  dfa.out_begin_ = read_vec<std::uint32_t>(in);
  dfa.out_ids_ = read_vec<std::int32_t>(in);
  dfa.pattern_lengths_ = read_vec<std::uint32_t>(in);
  dfa.max_pattern_length_ = read_u32(in);
  ACGPU_CHECK(dfa.out_begin_.size() >= 2, "Dfa::load: missing output CSR");

  // Every entry must index inside its table: kernels follow transitions as
  // row numbers, and the host expands records through the output CSR.
  const std::uint32_t states = stt.rows();
  const std::size_t oids = dfa.output_id_count();
  for (std::uint32_t s = 0; s < states; ++s) {
    for (std::uint32_t c = 1; c < SttMatrix::kColumns; ++c) {
      const std::int32_t t = stt.at(s, c);
      ACGPU_CHECK(t >= 0 && static_cast<std::uint32_t>(t) < states,
                  "Dfa::load: state " << s << " column " << c << " points to state " << t
                                      << " of " << states);
    }
    const std::int32_t oid = stt.output_id(static_cast<std::int32_t>(s));
    ACGPU_CHECK(oid >= 0 && static_cast<std::size_t>(oid) < oids,
                "Dfa::load: state " << s << " has output id " << oid << " of " << oids);
  }
  ACGPU_CHECK(dfa.out_begin_.front() == 0 && dfa.out_begin_.back() == dfa.out_ids_.size() &&
                  std::is_sorted(dfa.out_begin_.begin(), dfa.out_begin_.end()),
              "Dfa::load: output CSR offsets do not partition its "
                  << dfa.out_ids_.size() << " pattern ids");
  for (const std::int32_t id : dfa.out_ids_)
    ACGPU_CHECK(id >= 0 && static_cast<std::size_t>(id) < dfa.pattern_lengths_.size(),
                "Dfa::load: pattern id " << id << " of " << dfa.pattern_lengths_.size());
  // The kernels size their chunk overlap from the longest pattern: one
  // shorter than a real pattern would drop its matches across chunks.
  const auto longest =
      std::max_element(dfa.pattern_lengths_.begin(), dfa.pattern_lengths_.end());
  ACGPU_CHECK(longest != dfa.pattern_lengths_.end() && *longest == dfa.max_pattern_length_ &&
                  std::find(dfa.pattern_lengths_.begin(), dfa.pattern_lengths_.end(), 0u) ==
                      dfa.pattern_lengths_.end(),
              "Dfa::load: max pattern length " << dfa.max_pattern_length_
                                               << " disagrees with the pattern lengths");
  dfa.byte_pitch_ = stt.pitch();
  dfa.depth_ = bfs_depths(stt);
  dfa.classes_ = refine_classes(stt, dfa.depth_);
  const std::uint32_t width = dfa.classes_.count;
  dfa.rows_.resize(std::size_t{states} * width);
  dfa.output_id_.resize(states);
  for (std::uint32_t s = 0; s < states; ++s) {
    const auto state = static_cast<std::int32_t>(s);
    for (std::uint32_t k = 0; k < width; ++k)
      dfa.rows_[std::size_t{s} * width + k] = stt.next(state, dfa.classes_.first[k]);
    dfa.output_id_[s] = stt.output_id(state);
  }
  return dfa;
}

Dfa build_dfa(const PatternSet& patterns, std::uint32_t pad_pitch_to) {
  ACGPU_CHECK(!patterns.empty(), "build_dfa: empty pattern set");
  Automaton automaton(patterns);
  return Dfa(automaton, patterns, pad_pitch_to);
}

Dfa build_dfa_folded(const PatternSet& patterns, const ByteMap& map,
                     std::uint32_t pad_pitch_to) {
  ACGPU_CHECK(!patterns.empty(), "build_dfa_folded: empty pattern set");
  // Map the patterns; keep ids aligned with the ORIGINAL set (no dedup —
  // two patterns may fold to the same string and both must be reported).
  std::vector<std::string> folded;
  folded.reserve(patterns.size());
  for (const auto& p : patterns) {
    std::string m(p);
    for (auto& c : m) c = static_cast<char>(map[static_cast<std::uint8_t>(c)]);
    folded.push_back(std::move(m));
  }
  const PatternSet mapped(std::move(folded), /*dedup=*/false);
  Automaton automaton(mapped);
  return Dfa(automaton, mapped, pad_pitch_to, map);
}

}  // namespace acgpu::ac
