#include "crypto/md5.h"

#include <bit>
#include <cstring>

#include "crypto/hex.h"

namespace cg::crypto {
namespace {

// Per-round shift amounts (RFC 1321 §3.4).
constexpr std::uint32_t kShift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

// K[i] = floor(2^32 * abs(sin(i+1))).
constexpr std::uint32_t kSine[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

// Message word used by step i (RFC 1321 §3.4).
constexpr int message_index(int i) {
  return i < 16 ? i : i < 32 ? (5 * i + 1) % 16 : i < 48 ? (3 * i + 5) % 16
                                                          : (7 * i) % 16;
}

// Step i of round R. The caller rotates the roles of (a, b, c, d) from step
// to step instead of moving values, and each round runs unrolled, so every
// constant folds to an immediate.
template <int R>
inline void step(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d, const std::uint32_t* m, int i) {
  std::uint32_t f = 0;
  if constexpr (R == 0) {
    f = (b & c) | (~b & d);
  } else if constexpr (R == 1) {
    f = (d & b) | (~d & c);
  } else if constexpr (R == 2) {
    f = b ^ c ^ d;
  } else {
    f = c ^ (b | ~d);
  }
  a = b + std::rotl(a + f + kSine[i] + m[message_index(i)],
                    static_cast<int>(kShift[i]));
}

template <int R>
inline void round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                  std::uint32_t& d, const std::uint32_t* m) {
#pragma GCC unroll 4
  for (int i = R * 16; i < R * 16 + 16; i += 4) {
    step<R>(a, b, c, d, m, i);
    step<R>(d, a, b, c, m, i + 1);
    step<R>(c, d, a, b, m, i + 2);
    step<R>(b, c, d, a, m, i + 3);
  }
}

}  // namespace

Md5::Md5() : state_{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476} {}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  // Little-endian host assumed (x86-64/aarch64); a big-endian host would
  // need a byte swap here.
  std::memcpy(m, block, sizeof m);
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  round<0>(a, b, c, d, m);
  round<1>(a, b, c, d, m);
  round<2>(a, b, c, d, m);
  round<3>(a, b, c, d, m);
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(std::string_view data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take =
        std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == buffer_.size()) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(reinterpret_cast<const std::uint8_t*>(data.data()) + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

std::array<std::uint8_t, 16> Md5::digest() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  // Pad: 0x80 then zeros until 56 mod 64, in one update, then the 8-byte
  // little-endian length.
  static constexpr char kPad[64] = {'\x80'};
  update(std::string_view(kPad, buffer_len_ < 56 ? 56 - buffer_len_
                                                 : 120 - buffer_len_));
  char len_bytes[8];
  std::memcpy(len_bytes, &bit_len, 8);
  // Bypass length accounting for the final length block.
  std::memcpy(buffer_.data() + 56, len_bytes, 8);
  process_block(buffer_.data());
  buffer_len_ = 0;

  std::array<std::uint8_t, 16> out{};
  std::memcpy(out.data(), state_.data(), 16);
  return out;
}

std::string Md5::hex(std::string_view data) {
  Md5 md5;
  md5.update(data);
  const auto d = md5.digest();
  return to_hex(d);
}

}  // namespace cg::crypto
