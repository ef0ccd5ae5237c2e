// The paper's two GPU matching kernels (Section IV.B.3):
//
//  - kGlobalOnly: every thread scans its chunk (+ overlap) straight out of
//    global memory; the STT is fetched through the texture path.
//  - kShared: each thread block first stages its input block into shared
//    memory (cooperative coalesced 4-byte loads, placement chosen by a
//    StoreScheme), synchronises, then matches out of shared memory. Its
//    input may also arrive packed at 2 or 6 bits per symbol
//    (packed_text.h): the staging then expands every packed group of four
//    codes into the four symbols the byte path would have stored, and the
//    shared store onwards is unchanged. 2-bit codes expand in registers; each
//    warp stages 6-bit codes from one coalesced load of its 24 packed words,
//    which it passes to its lanes through a per-warp exchange in shared
//    memory, and turns each code into its symbol through its own copy of
//    the 64-byte symbol table beside the exchange.
//
// Both kernels scan text mapped to the DFA's byte classes (device_dfa.h):
// each staged or loaded symbol is a class id, which is the texture column of
// its transition. Both use the same matching loop, the same X-byte
// chunk-overlap rule as ac/chunking.h (a thread leaves the overlap once no
// match starting in its chunk can still end: match_flag.h's depth field),
// and write one word per match, accepting state x S + scan offset, to a
// slot-major MatchBuffer plus a u16 count per thread; the host decodes the
// words and expands each state's output set through the DFA.
//
// The loop reads either device table, picked by the run_ac_kernel overload:
// the dense class STT (device_dfa.h), one fetch per step, or the compressed
// table (compressed_kernel.h), whose step fetches the row's bitmap word and
// then either the root row, which the shared approach's staging stages
// after the text, or the word's prefix base and the target at its rank. The
// transition fetch is the only code the two tables do not share.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "ac/dfa.h"
#include "gpusim/launcher.h"
#include "gpusim/stream.h"
#include "kernels/compressed_kernel.h"
#include "kernels/device_dfa.h"
#include "kernels/match_output.h"
#include "kernels/packed_text.h"
#include "kernels/store_scheme.h"

namespace acgpu::kernels {

enum class Approach : std::uint8_t { kGlobalOnly, kShared };

const char* to_string(Approach approach);

/// Where the kernel reads the STT from: the paper places it in texture
/// memory (cached); kGlobal is the ablation that validates that choice.
enum class SttPlacement : std::uint8_t { kTexture, kGlobal };

const char* to_string(SttPlacement placement);

struct AcLaunchSpec {
  Approach approach = Approach::kShared;
  StoreScheme scheme = StoreScheme::kDiagonal;  ///< shared approach only
  /// Per-thread chunk (multiple of 4). The defaults stage (256+1)*32 ≈ 8 KB
  /// per block — the paper's "8~12KB of the 16KB shared memory" regime —
  /// giving 8 resident warps per SM.
  std::uint32_t chunk_bytes = 32;
  std::uint32_t threads_per_block = 256;
  /// Record slots per thread, below MatchBuffer::kMaxCount; the buffer
  /// allocates min(match_capacity, chunk + overlap) of them.
  std::uint32_t match_capacity = 64;
  SttPlacement stt_placement = SttPlacement::kTexture;
  gpusim::LaunchOptions sim{};
};

struct AcLaunchOutcome {
  gpusim::LaunchResult sim;
  std::uint64_t threads = 0;
  std::uint64_t blocks = 0;
  /// Shared memory per block: staged_shared_bytes, plus the compressed
  /// table's root row (0 for global-only).
  std::uint32_t shared_bytes = 0;
  /// Matches written by the simulated kernel. Complete only in Functional
  /// mode; in Timed mode only the sampled blocks produced output.
  MatchBuffer::Collected matches;
};

/// Shared memory one kShared block takes for text shipped at `symbol_bits`
/// bits per symbol (8, 6 or 2): (threads + 1) chunk-sized staging areas, and
/// for 6-bit text 160 more bytes per warp, its symbol table (64 B) and its
/// packed-word exchange (96 B).
std::uint32_t staged_shared_bytes(std::uint32_t chunk_bytes, std::uint32_t threads_per_block,
                                  std::uint32_t symbol_bits);

/// Uploads `text` into device memory with enough zero padding for whole-word
/// staging loads. Returns the device address. The AC kernel reads byte
/// classes, so its callers upload with upload_class_text; the PFAC kernel
/// reads raw bytes.
gpusim::DevAddr upload_text(gpusim::DeviceMemory& mem, std::string_view text);

/// upload_text of `text` mapped through the DFA's byte classes
/// (ac::ByteClasses::map): the text run_ac_kernel scans over either table.
gpusim::DevAddr upload_class_text(gpusim::DeviceMemory& mem, const DeviceDfa& ddfa,
                                  std::string_view text);
gpusim::DevAddr upload_class_text(gpusim::DeviceMemory& mem,
                                  const DeviceCompressedDfa& dcdfa,
                                  std::string_view text);

/// Runs one AC kernel launch over text already resident in device memory,
/// mapped to `ddfa`'s byte classes (upload_class_text). Allocates a
/// MatchBuffer from `mem` — callers sweeping configurations should bracket
/// calls with DeviceMemory::mark()/release(). With `symbols` set,
/// `text_addr` holds the class text packed against that table (pack_text,
/// followed by 8 zero bytes like upload_text's) and `text_len` still counts
/// symbols; only Approach::kShared unpacks, and 6-bit text needs whole warps
/// per block.
AcLaunchOutcome run_ac_kernel(const gpusim::GpuConfig& config,
                              gpusim::DeviceMemory& mem, const DeviceDfa& ddfa,
                              gpusim::DevAddr text_addr, std::uint64_t text_len,
                              const AcLaunchSpec& spec,
                              std::optional<SymbolTable> symbols = std::nullopt);

/// The same launch over the compressed table: the same text, spec and
/// outcome. It needs Approach::kShared, whose staging also stages the root
/// row (staged_shared_bytes plus 4 bytes per class of shared memory), and
/// SttPlacement::kTexture; both checks throw acgpu::Error.
AcLaunchOutcome run_ac_kernel(const gpusim::GpuConfig& config,
                              gpusim::DeviceMemory& mem, const DeviceCompressedDfa& dcdfa,
                              gpusim::DevAddr text_addr, std::uint64_t text_len,
                              const AcLaunchSpec& spec,
                              std::optional<SymbolTable> symbols = std::nullopt);

/// Stream-aware variant: the launch is enqueued on `stream` of the given
/// StreamSim, so its simulated duration lands on the multi-stream timeline
/// (after the stream's prior ops, serialised with other kernels on the
/// compute engine). Config and device memory come from the StreamSim.
/// Functional side effects complete at enqueue, so `matches` is immediately
/// valid in Functional mode.
AcLaunchOutcome run_ac_kernel_stream(gpusim::StreamSim& streams,
                                     gpusim::StreamId stream, const DeviceDfa& ddfa,
                                     gpusim::DevAddr text_addr, std::uint64_t text_len,
                                     const AcLaunchSpec& spec,
                                     std::optional<SymbolTable> symbols = std::nullopt,
                                     std::string label = {});

}  // namespace acgpu::kernels
