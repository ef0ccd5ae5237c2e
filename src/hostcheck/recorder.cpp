#include "hostcheck/recorder.h"

namespace acgpu::hostcheck {

std::uint32_t Recorder::register_sim() {
  std::scoped_lock lock(mu_);
  return trace_.sims++;
}

std::uint32_t Recorder::register_mutex(const std::string& name) {
  std::scoped_lock lock(mu_);
  trace_.mutexes.push_back(name);
  return static_cast<std::uint32_t>(trace_.mutexes.size() - 1);
}

void Recorder::on_op(const gpusim::HostOpRecord& record) {
  std::scoped_lock lock(mu_);
  trace_.records.emplace_back(record);
}

void Recorder::on_access(const gpusim::HostAccessRecord& record) {
  std::scoped_lock lock(mu_);
  trace_.records.emplace_back(record);
}

void Recorder::on_event_record(const gpusim::HostEventRecord& record) {
  std::scoped_lock lock(mu_);
  trace_.records.emplace_back(record);
}

void Recorder::on_wait_event(const gpusim::HostWaitEventRecord& record) {
  std::scoped_lock lock(mu_);
  trace_.records.emplace_back(record);
}

void Recorder::on_lock(const gpusim::HostLockRecord& record) {
  std::scoped_lock lock(mu_);
  trace_.records.emplace_back(record);
}

HostTrace Recorder::trace() const {
  std::scoped_lock lock(mu_);
  return trace_;
}

void Recorder::reset() {
  std::scoped_lock lock(mu_);
  trace_ = HostTrace{};
}

}  // namespace acgpu::hostcheck
