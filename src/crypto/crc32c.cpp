#include "crypto/crc32c.h"

#include <array>
#include <cstddef>

namespace cg::crypto {
namespace {

// Reflected Castagnoli polynomial (0x1EDC6F41 bit-reversed).
constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

using Table = std::array<std::array<std::uint32_t, 256>, 8>;

// Slice-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][i] is the CRC of byte i followed by k zero bytes, so eight
// lookups advance the state over eight input bytes at once.
constexpr Table make_tables() {
  Table tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Table kTables = make_tables();

/// Little-endian 32-bit load, byte by byte: portable at any alignment and
/// host byte order (compilers fold it into one load where that is valid).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

void Crc32c::update(std::string_view data) {
  std::uint32_t crc = state_;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  state_ = crc;
}

std::uint32_t crc32c(std::string_view data) {
  Crc32c crc;
  crc.update(data);
  return crc.value();
}

}  // namespace cg::crypto
