// The hostcheck Recorder: the shipped gpusim::HostObserver implementation.
//
// It does no analysis of its own — it serialises every callback into one
// globally ordered trace (HostTrace), which analyze.h replays into an op
// DAG with vector-clock happens-before. Splitting record from analyse keeps
// the hook sites cheap (one lock + one vector push per action), makes the
// trace a test fixture (tests hand-build traces for every hazard kind), and
// lets one trace be analysed under different options.
//
// Thread-safety: every callback locks; the serve-side audit records from
// the worker thread and the feeding threads concurrently. The global record
// order is the lock-acquisition order, which for the single-threaded
// pipeline equals program order. Multi-threaded traces still analyse
// soundly: stream ops of one sim are always enqueued by one thread.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "gpusim/host_observer.h"

namespace acgpu::hostcheck {

/// The globally ordered record stream plus the registries that name its
/// ids. Everything the analyzer consumes; plain data, copyable.
struct HostTrace {
  using Record =
      std::variant<gpusim::HostOpRecord, gpusim::HostAccessRecord,
                   gpusim::HostEventRecord, gpusim::HostWaitEventRecord,
                   gpusim::HostLockRecord>;

  std::uint32_t sims = 0;           ///< StreamSims registered
  std::vector<std::string> mutexes; ///< index = registered mutex id
  std::vector<Record> records;      ///< global order (= program order for
                                    ///< single-threaded drivers)

  bool empty() const { return records.empty(); }
};

class Recorder final : public gpusim::HostObserver {
 public:
  Recorder() = default;

  std::uint32_t register_sim() override;
  std::uint32_t register_mutex(const std::string& name) override;

  void on_op(const gpusim::HostOpRecord& record) override;
  void on_access(const gpusim::HostAccessRecord& record) override;
  void on_event_record(const gpusim::HostEventRecord& record) override;
  void on_wait_event(const gpusim::HostWaitEventRecord& record) override;
  void on_lock(const gpusim::HostLockRecord& record) override;

  /// Snapshot of the trace so far (copies under the lock — call after the
  /// audited run quiesced).
  HostTrace trace() const;

  /// Drops every record and registration (audit loops reuse one Recorder).
  void reset();

 private:
  mutable std::mutex mu_;
  HostTrace trace_;
};

}  // namespace acgpu::hostcheck
