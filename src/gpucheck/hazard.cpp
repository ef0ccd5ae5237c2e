#include "gpucheck/hazard.h"

#include <ostream>

namespace acgpu::gpucheck {

const char* to_string(HazardKind kind) {
  switch (kind) {
    case HazardKind::kSharedRace: return "shared-race";
    case HazardKind::kBarrierDivergence: return "barrier-divergence";
    case HazardKind::kSharedOutOfBounds: return "shared-oob";
    case HazardKind::kGlobalOutOfBounds: return "global-oob";
    case HazardKind::kTextureOutOfBounds: return "texture-oob";
    case HazardKind::kUninitSharedRead: return "uninit-shared-read";
    case HazardKind::kGlobalWriteRace: return "global-write-race";
    case HazardKind::kCoalescingExcess: return "coalescing-excess";
    case HazardKind::kBankConflictBudget: return "bank-conflict-budget";
  }
  return "unknown";
}

const char* op_name(gpusim::OpKind op) {
  using gpusim::OpKind;
  switch (op) {
    case OpKind::None: return "none";
    case OpKind::Compute: return "compute";
    case OpKind::GlobalLoadU8: return "global-load-u8";
    case OpKind::GlobalLoadU32: return "global-load-u32";
    case OpKind::GlobalStoreU16: return "global-store-u16";
    case OpKind::GlobalStoreU32: return "global-store-u32";
    case OpKind::SharedLoadU8: return "shared-load-u8";
    case OpKind::SharedLoadU32: return "shared-load-u32";
    case OpKind::SharedStoreU32: return "shared-store-u32";
    case OpKind::TexFetch: return "tex-fetch";
    case OpKind::TexFetch2: return "tex-fetch2";
    case OpKind::Barrier: return "barrier";
  }
  return "unknown";
}

std::ostream& operator<<(std::ostream& out, const AccessSite& site) {
  if (!site.valid()) return out << "<no site>";
  out << "block " << site.block << " warp " << site.warp << " lane "
      << site.lane << " (thread " << site.thread << ") instr #" << site.instr
      << " epoch " << site.epoch << ": " << op_name(site.op) << " @0x"
      << std::hex << site.addr << std::dec;
  if (site.width > 0)
    out << " (" << static_cast<unsigned>(site.width) << "B "
        << (site.is_store ? "store" : "load") << ")";
  return out;
}

std::ostream& operator<<(std::ostream& out, const Hazard& hazard) {
  out << to_string(hazard.kind) << ": " << hazard.message;
  if (hazard.first.valid()) out << "\n    first:  " << hazard.first;
  if (hazard.second.valid()) out << "\n    second: " << hazard.second;
  return out;
}

}  // namespace acgpu::gpucheck
