#include "ac/dfa.h"

#include <algorithm>
#include <istream>
#include <ostream>

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

Dfa::Dfa(const Automaton& automaton, const PatternSet& patterns,
         std::uint32_t pad_pitch_to, const std::optional<ByteMap>& byte_map)
    : stt_(static_cast<std::uint32_t>(automaton.state_count()), pad_pitch_to) {
  const Trie& trie = automaton.trie();

  // δ(s, b): child when the goto edge exists, otherwise δ(f(s), b). Filling
  // in BFS order makes the parent-of-failure row available before it is
  // consulted (failure links point strictly shallower). With a byte map,
  // column b carries the transition for map[b].
  const ByteMap map = byte_map.value_or(identity_byte_map());
  for (State s : automaton.bfs_order()) {
    const State f = automaton.fail(s);
    for (std::uint32_t b = 0; b < 256; ++b) {
      const std::uint32_t col = SttMatrix::column_for_byte(static_cast<std::uint8_t>(b));
      const std::uint8_t eff = map[b];
      const State child = trie.child(s, eff);
      if (child != Trie::kNoChild) {
        stt_.at(static_cast<std::uint32_t>(s), col) = child;
      } else if (s != 0) {
        stt_.at(static_cast<std::uint32_t>(s), col) =
            stt_.at(static_cast<std::uint32_t>(f), col);
      }  // root default: stays 0
    }
  }

  // Output sets: assign compact output ids to match states; the STT match
  // column stores the id (0 = non-match), the CSR stores the pattern lists.
  out_begin_ = {0, 0};  // id 0: empty set
  for (State s : automaton.bfs_order()) {
    if (!automaton.has_output(s)) continue;
    const auto ids = automaton.output(s);
    stt_.at(static_cast<std::uint32_t>(s), 0) =
        static_cast<std::int32_t>(out_begin_.size() - 1);
    out_ids_.insert(out_ids_.end(), ids.begin(), ids.end());
    out_begin_.push_back(static_cast<std::uint32_t>(out_ids_.size()));
  }

  pattern_lengths_.reserve(patterns.size());
  for (std::size_t id = 0; id < patterns.size(); ++id)
    pattern_lengths_.push_back(patterns.length(id));
  max_pattern_length_ = patterns.max_length();

  depth_.resize(stt_.rows());
  for (std::uint32_t s = 0; s < stt_.rows(); ++s)
    depth_[s] = static_cast<std::uint8_t>(
        std::min(trie.depth(static_cast<State>(s)), kMaxDepth));
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

}  // namespace

void Dfa::save(std::ostream& out) const {
  out.write(kMagic, sizeof kMagic);
  stt_.save(out);
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
  dfa.stt_ = SttMatrix::load(in);
  dfa.out_begin_ = read_vec<std::uint32_t>(in);
  dfa.out_ids_ = read_vec<std::int32_t>(in);
  dfa.pattern_lengths_ = read_vec<std::uint32_t>(in);
  dfa.max_pattern_length_ = read_u32(in);
  ACGPU_CHECK(dfa.out_begin_.size() >= 2, "Dfa::load: missing output CSR");

  // Every entry must index inside its table: kernels follow transitions as
  // row numbers, and the host expands records through the output CSR.
  const std::uint32_t states = dfa.stt_.rows();
  const std::size_t oids = dfa.output_id_count();
  for (std::uint32_t s = 0; s < states; ++s) {
    for (std::uint32_t c = 1; c < SttMatrix::kColumns; ++c) {
      const std::int32_t t = dfa.stt_.at(s, c);
      ACGPU_CHECK(t >= 0 && static_cast<std::uint32_t>(t) < states,
                  "Dfa::load: state " << s << " column " << c << " points to state " << t
                                      << " of " << states);
    }
    const std::int32_t oid = dfa.stt_.output_id(static_cast<std::int32_t>(s));
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
  dfa.depth_ = bfs_depths(dfa.stt_);
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
