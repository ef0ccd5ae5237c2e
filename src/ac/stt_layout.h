// The State Transition Table (STT) — the paper's Fig. 5 data structure.
//
// A 2-D int32 matrix: one row per DFA state, 257 columns. Column 0 is the
// match column ("M" in the paper; here it stores an output-set id, 0 = no
// match). Columns 1..256 hold the next state for input bytes 0..255. The
// GPU side binds this matrix as a 2-D texture.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "util/error.h"

namespace acgpu::ac {

class SttMatrix {
 public:
  /// Fixed by the paper: 256 byte columns + 1 match column.
  static constexpr std::uint32_t kColumns = 257;
  /// Column index for input byte b.
  static constexpr std::uint32_t column_for_byte(std::uint8_t b) {
    return 1u + b;
  }
  /// Row pitch for `pad_pitch_to` (see the constructor).
  static constexpr std::uint32_t padded_pitch(std::uint32_t pad_pitch_to) {
    return pad_pitch_to == 0
               ? kColumns
               : (kColumns + pad_pitch_to - 1) / pad_pitch_to * pad_pitch_to;
  }

  SttMatrix() = default;

  /// Allocates rows x kColumns, zero-initialised (state 0 / no match).
  /// `pad_pitch_to` rounds the row pitch up to a multiple (e.g. 64 elements)
  /// so texture rows can be segment-aligned; 0 keeps pitch == kColumns.
  explicit SttMatrix(std::uint32_t rows, std::uint32_t pad_pitch_to = 0);

  std::uint32_t rows() const { return rows_; }
  std::uint32_t pitch() const { return pitch_; }

  std::int32_t at(std::uint32_t row, std::uint32_t col) const {
    return data_[static_cast<std::size_t>(row) * pitch_ + col];
  }
  std::int32_t& at(std::uint32_t row, std::uint32_t col) {
    return data_[static_cast<std::size_t>(row) * pitch_ + col];
  }

  /// Next state for (state, byte) — the hot accessor.
  std::int32_t next(std::int32_t state, std::uint8_t byte) const {
    return data_[static_cast<std::size_t>(state) * pitch_ + 1 + byte];
  }
  /// Output-set id of a state (0 = not a match state).
  std::int32_t output_id(std::int32_t state) const {
    return data_[static_cast<std::size_t>(state) * pitch_];
  }

  const std::int32_t* data() const { return data_.data(); }
  std::size_t size_bytes() const { return data_.size() * sizeof(std::int32_t); }

  /// Binary round-trip (versioned header). Throws acgpu::Error on a
  /// malformed stream.
  void save(std::ostream& out) const;
  static SttMatrix load(std::istream& in);

  /// Writes what save() writes for a rows x pitch matrix without holding
  /// it: `fill_row(r, words)` fills row r into `words`, `pitch` zeroed
  /// elements.
  static void save_rows(std::ostream& out, std::uint32_t rows, std::uint32_t pitch,
                        const std::function<void(std::uint32_t, std::int32_t*)>& fill_row);

  friend bool operator==(const SttMatrix& a, const SttMatrix& b) {
    return a.rows_ == b.rows_ && a.pitch_ == b.pitch_ && a.data_ == b.data_;
  }

 private:
  std::uint32_t rows_ = 0;
  std::uint32_t pitch_ = 0;
  std::vector<std::int32_t> data_;
};

}  // namespace acgpu::ac
