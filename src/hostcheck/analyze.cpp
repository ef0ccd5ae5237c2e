#include "hostcheck/analyze.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace acgpu::hostcheck {
namespace {

using gpusim::HostAccessRecord;
using gpusim::HostEventRecord;
using gpusim::HostLockRecord;
using gpusim::HostOpKind;
using gpusim::HostOpRecord;
using gpusim::HostWaitEventRecord;

const char* op_kind_name(HostOpKind kind) {
  switch (kind) {
    case HostOpKind::kH2D: return "h2d";
    case HostOpKind::kKernel: return "kernel";
    case HostOpKind::kD2H: return "d2h";
  }
  return "?";
}

/// Vector clock over a sim's streams: clock[s] = how many of stream s's ops
/// are ordered before this point. Missing entries count as 0.
using Clock = std::vector<std::uint64_t>;

void join(Clock& a, const Clock& b) {
  if (b.size() > a.size()) a.resize(b.size(), 0);
  for (std::size_t i = 0; i < b.size(); ++i) a[i] = std::max(a[i], b[i]);
}

/// One resolved op with its clock. `pos` is the op's 1-based position on
/// its stream, so op A happens-before op B iff B's clock covers A's
/// position on A's stream.
struct OpNode {
  HostOpRecord rec;
  Clock clock;
  std::uint64_t pos = 0;
};

bool happens_before(const OpNode& a, const OpNode& b) {
  const std::uint32_t s = a.rec.stream;
  return s < b.clock.size() && a.pos <= b.clock[s];
}

/// Per-StreamSim replay state; sims never share clocks (analyze.h says
/// why they are never compared).
struct SimState {
  std::vector<OpNode> ops;          ///< indexed by op id (timeline index)
  std::vector<Clock> stream_clock;  ///< clock of the stream's last op
  std::vector<Clock> pending;       ///< deps applied to the stream's next op
  std::vector<std::uint64_t> stream_len;
  std::vector<Clock> events;  ///< event id -> captured clock
  std::vector<HostAccessRecord> accesses;

  void ensure_stream(std::uint32_t stream) {
    if (stream >= stream_clock.size()) {
      stream_clock.resize(stream + 1);
      pending.resize(stream + 1);
      stream_len.resize(stream + 1, 0);
    }
  }
};

bool ranges_overlap(std::uint64_t a, std::uint64_t an, std::uint64_t b,
                    std::uint64_t bn) {
  return an > 0 && bn > 0 && a < b + bn && b < a + an;
}

class Analyzer {
 public:
  Analyzer(const HostTrace& trace, const AnalyzeOptions& options)
      : trace_(trace), options_(options) {}

  HostAuditReport run() {
    report_.sims = trace_.sims;
    report_.mutexes = trace_.mutexes.size();
    for (const HostTrace::Record& record : trace_.records)
      std::visit([this](const auto& r) { handle(r); }, record);
    check_conflicts();
    check_lock_order();
    report_.lock_edges = lock_edges_.size();
    return std::move(report_);
  }

 private:
  SimState& sim(std::uint32_t id) {
    if (id >= sims_.size()) sims_.resize(id + 1);
    return sims_[id];
  }

  void add(HostHazard hazard) {
    ++report_.occurrences[static_cast<std::size_t>(hazard.kind)];
    if (report_.hazards.size() < options_.max_hazards)
      report_.hazards.push_back(std::move(hazard));
    else
      ++report_.dropped_hazards;
  }

  std::string op_label(const OpNode& node) const {
    std::ostringstream out;
    out << op_kind_name(node.rec.kind) << " op " << node.rec.op;
    if (!node.rec.label.empty()) out << " (" << node.rec.label << ")";
    return out.str();
  }

  void handle(const HostOpRecord& r) {
    ++report_.ops;
    SimState& s = sim(r.sim);
    s.ensure_stream(r.stream);
    OpNode node;
    node.rec = r;
    node.clock = s.stream_clock[r.stream];
    join(node.clock, s.pending[r.stream]);
    node.pos = ++s.stream_len[r.stream];
    if (r.stream >= node.clock.size()) node.clock.resize(r.stream + 1, 0);
    node.clock[r.stream] = node.pos;
    s.stream_clock[r.stream] = node.clock;
    s.pending[r.stream].clear();
    if (r.op >= s.ops.size()) s.ops.resize(r.op + 1);
    s.ops[r.op] = std::move(node);
  }

  void handle(const HostAccessRecord& r) {
    ++report_.accesses;
    sim(r.sim).accesses.push_back(r);
  }

  void handle(const HostEventRecord& r) {
    SimState& s = sim(r.sim);
    s.ensure_stream(r.stream);
    if (r.event >= s.events.size()) s.events.resize(r.event + 1);
    s.events[r.event] = s.stream_clock[r.stream];
  }

  void handle(const HostWaitEventRecord& r) {
    SimState& s = sim(r.sim);
    s.ensure_stream(r.stream);
    if (r.event < s.events.size())
      join(s.pending[r.stream], s.events[r.event]);
  }

  void handle(const HostLockRecord& r) {
    ++report_.lock_events;
    std::vector<std::uint32_t>& held = held_[r.thread];
    if (r.acquire) {
      for (const std::uint32_t h : held)
        if (h != r.mutex) lock_edges_.insert({h, r.mutex});
      held.push_back(r.mutex);
    } else {
      // Pop the most recent matching acquire (locks release LIFO in
      // practice, but a stray order must not desync the whole stack).
      for (auto it = held.rbegin(); it != held.rend(); ++it) {
        if (*it != r.mutex) continue;
        held.erase(std::next(it).base());
        break;
      }
    }
  }

  void check_conflicts() {
    for (const SimState& s : sims_) {
      // One hazard per unordered op pair, however many ranges collide.
      std::set<std::pair<std::uint64_t, std::uint64_t>> reported;
      for (std::size_t i = 0; i < s.accesses.size(); ++i) {
        for (std::size_t j = i + 1; j < s.accesses.size(); ++j) {
          const HostAccessRecord& x = s.accesses[i];
          const HostAccessRecord& y = s.accesses[j];
          if (x.op == y.op) continue;
          if (!x.is_write && !y.is_write) continue;
          if (!ranges_overlap(x.addr, x.bytes, y.addr, y.bytes)) continue;
          // Accesses of ops the trace never recorded (hand-built traces)
          // cannot be ordered — skip rather than crash.
          if (x.op >= s.ops.size() || s.ops[x.op].pos == 0) continue;
          if (y.op >= s.ops.size() || s.ops[y.op].pos == 0) continue;
          const OpNode& a = s.ops[x.op];
          const OpNode& b = s.ops[y.op];
          if (happens_before(a, b) || happens_before(b, a)) continue;
          const auto pair = std::minmax(x.op, y.op);
          if (!reported.insert({pair.first, pair.second}).second) continue;
          add(conflict_hazard(x, y, a, b));
        }
      }
    }
  }

  HostHazard conflict_hazard(const HostAccessRecord& x,
                             const HostAccessRecord& y, const OpNode& a,
                             const OpNode& b) {
    HostHazard h;
    if (a.rec.kind == HostOpKind::kD2H || b.rec.kind == HostOpKind::kD2H) {
      h.kind = HazardKind::kWriteDuringD2H;
    } else if ((a.rec.kind == HostOpKind::kH2D && x.is_write &&
                b.rec.kind == HostOpKind::kKernel) ||
               (b.rec.kind == HostOpKind::kH2D && y.is_write &&
                a.rec.kind == HostOpKind::kKernel)) {
      h.kind = HazardKind::kUploadReuse;
    } else {
      h.kind = HazardKind::kUnorderedConflict;
    }
    std::ostringstream msg;
    msg << op_label(a) << (x.is_write ? " writes" : " reads") << " ["
        << x.addr << ", +" << x.bytes << ") with no happens-before edge to "
        << op_label(b) << " which " << (y.is_write ? "writes [" : "reads [")
        << y.addr << ", +" << y.bytes << ")";
    h.message = msg.str();
    h.first = OpRef{a.rec.sim, static_cast<std::int64_t>(a.rec.op)};
    h.second = OpRef{b.rec.sim, static_cast<std::int64_t>(b.rec.op)};
    return h;
  }

  void check_lock_order() {
    const std::size_t n = trace_.mutexes.size();
    std::vector<std::vector<std::uint32_t>> adj(n);
    for (const auto& [from, to] : lock_edges_)
      if (from < n && to < n) adj[from].push_back(to);

    // Report each cycle once, anchored at its smallest mutex id: DFS from
    // every node, keep paths that return to the start without visiting a
    // smaller id.
    for (std::uint32_t start = 0; start < n; ++start) {
      std::vector<std::uint32_t> path;
      std::vector<bool> on_path(n, false);
      if (find_cycle(start, start, adj, path, on_path)) {
        HostHazard h;
        h.kind = HazardKind::kLockOrderCycle;
        std::ostringstream msg;
        msg << "lock-order cycle: ";
        for (const std::uint32_t m : path) {
          h.cycle.push_back(trace_.mutexes[m]);
          msg << trace_.mutexes[m] << " -> ";
        }
        h.cycle.push_back(trace_.mutexes[start]);
        msg << trace_.mutexes[start];
        h.message = msg.str();
        add(std::move(h));
      }
    }
  }

  bool find_cycle(std::uint32_t start, std::uint32_t at,
                  const std::vector<std::vector<std::uint32_t>>& adj,
                  std::vector<std::uint32_t>& path,
                  std::vector<bool>& on_path) {
    path.push_back(at);
    on_path[at] = true;
    for (const std::uint32_t next : adj[at]) {
      if (next == start) return true;
      if (next < start || on_path[next]) continue;
      if (find_cycle(start, next, adj, path, on_path)) return true;
    }
    path.pop_back();
    on_path[at] = false;
    return false;
  }

  const HostTrace& trace_;
  AnalyzeOptions options_;
  HostAuditReport report_;
  std::vector<SimState> sims_;
  std::map<std::uint64_t, std::vector<std::uint32_t>> held_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> lock_edges_;
};

}  // namespace

HostAuditReport analyze(const HostTrace& trace, const AnalyzeOptions& options) {
  return Analyzer(trace, options).run();
}

}  // namespace acgpu::hostcheck
