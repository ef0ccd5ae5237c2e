#include "ac/stt_layout.h"

#include <algorithm>
#include <istream>
#include <ostream>

namespace acgpu::ac {
namespace {

constexpr char kMagic[8] = {'A', 'C', 'S', 'T', 'T', '0', '0', '1'};

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  ACGPU_CHECK(in.good(), "SttMatrix::load: truncated stream");
  return v;
}

/// Bytes left in the stream — guards against headers that declare absurd
/// sizes (a corrupt byte must not trigger a multi-gigabyte allocation).
std::uint64_t remaining_bytes(std::istream& in) {
  const auto pos = in.tellg();
  if (pos < 0) return ~std::uint64_t{0};  // non-seekable: skip the guard
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  return static_cast<std::uint64_t>(end - pos);
}

}  // namespace

SttMatrix::SttMatrix(std::uint32_t rows, std::uint32_t pad_pitch_to)
    : rows_(rows), pitch_(padded_pitch(pad_pitch_to)) {
  ACGPU_CHECK(rows > 0, "SttMatrix requires at least one state row");
  data_.assign(static_cast<std::size_t>(rows_) * pitch_, 0);
}

void SttMatrix::save(std::ostream& out) const {
  save_rows(out, rows_, pitch_, [&](std::uint32_t r, std::int32_t* words) {
    std::copy_n(data_.data() + static_cast<std::size_t>(r) * pitch_, pitch_, words);
  });
}

void SttMatrix::save_rows(std::ostream& out, std::uint32_t rows, std::uint32_t pitch,
                          const std::function<void(std::uint32_t, std::int32_t*)>& fill_row) {
  out.write(kMagic, sizeof kMagic);
  write_u32(out, rows);
  write_u32(out, pitch);
  std::vector<std::int32_t> words(pitch);
  for (std::uint32_t r = 0; r < rows; ++r) {
    std::fill(words.begin(), words.end(), 0);
    fill_row(r, words.data());
    out.write(reinterpret_cast<const char*>(words.data()),
              static_cast<std::streamsize>(words.size() * sizeof(std::int32_t)));
  }
  ACGPU_CHECK(out.good(), "SttMatrix::save: stream write failed");
}

SttMatrix SttMatrix::load(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof magic);
  ACGPU_CHECK(in.good() && std::equal(magic, magic + 8, kMagic),
              "SttMatrix::load: bad magic");
  SttMatrix m;
  m.rows_ = read_u32(in);
  m.pitch_ = read_u32(in);
  ACGPU_CHECK(m.rows_ > 0 && m.pitch_ >= kColumns,
              "SttMatrix::load: corrupt header (rows=" << m.rows_
                  << ", pitch=" << m.pitch_ << ")");
  const std::uint64_t body =
      static_cast<std::uint64_t>(m.rows_) * m.pitch_ * sizeof(std::int32_t);
  ACGPU_CHECK(body <= remaining_bytes(in),
              "SttMatrix::load: header declares " << body
                  << "B of table but the stream is shorter");
  m.data_.resize(static_cast<std::size_t>(m.rows_) * m.pitch_);
  in.read(reinterpret_cast<char*>(m.data_.data()),
          static_cast<std::streamsize>(m.size_bytes()));
  ACGPU_CHECK(in.good(), "SttMatrix::load: truncated table body");
  return m;
}

}  // namespace acgpu::ac
