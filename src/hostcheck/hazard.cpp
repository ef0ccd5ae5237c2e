#include "hostcheck/hazard.h"

#include <ostream>

namespace acgpu::hostcheck {

const char* to_string(HazardKind kind) {
  switch (kind) {
    case HazardKind::kUnorderedConflict: return "unordered-conflict";
    case HazardKind::kUploadReuse: return "upload-reuse";
    case HazardKind::kWriteDuringD2H: return "write-during-d2h";
    case HazardKind::kLockOrderCycle: return "lock-order-cycle";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& out, const OpRef& ref) {
  if (!ref.valid()) return out << "(none)";
  return out << "sim " << ref.sim << " op " << ref.op;
}

std::ostream& operator<<(std::ostream& out, const HostHazard& hazard) {
  out << to_string(hazard.kind) << ": " << hazard.message;
  if (hazard.first.valid()) out << " [first: " << hazard.first;
  if (hazard.second.valid()) out << "; second: " << hazard.second;
  if (hazard.first.valid()) out << "]";
  return out;
}

}  // namespace acgpu::hostcheck
