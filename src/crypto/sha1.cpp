#include "crypto/sha1.h"

#include <bit>
#include <cstring>

#include "crypto/hex.h"

namespace cg::crypto {
namespace {

// One step of round R (FIPS 180-4 §6.1.2). The caller rotates the roles of
// (a, b, c, d, e) from step to step instead of moving values, and each
// round runs unrolled, so no step branches on its index.
template <int R>
inline void step(std::uint32_t a, std::uint32_t& b, std::uint32_t c,
                 std::uint32_t d, std::uint32_t& e, std::uint32_t w) {
  std::uint32_t f = 0;
  std::uint32_t k = 0;
  if constexpr (R == 0) {
    f = (b & c) | (~b & d);
    k = 0x5A827999;
  } else if constexpr (R == 1) {
    f = b ^ c ^ d;
    k = 0x6ED9EBA1;
  } else if constexpr (R == 2) {
    f = (b & c) | (b & d) | (c & d);
    k = 0x8F1BBCDC;
  } else {
    f = b ^ c ^ d;
    k = 0xCA62C1D6;
  }
  e += std::rotl(a, 5) + f + k + w;
  b = std::rotl(b, 30);
}

// The message schedule lives in a 16-word ring: word i (i >= 16) replaces
// word i - 16 as it is computed.
inline std::uint32_t schedule(std::uint32_t* w, int i) {
  if (i < 16) return w[i];
  w[i & 15] = std::rotl(
      w[(i - 3) & 15] ^ w[(i - 8) & 15] ^ w[(i - 14) & 15] ^ w[i & 15], 1);
  return w[i & 15];
}

template <int R>
inline void round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                  std::uint32_t& d, std::uint32_t& e, std::uint32_t* w) {
#pragma GCC unroll 4
  for (int i = R * 20; i < R * 20 + 20; i += 5) {
    step<R>(a, b, c, d, e, schedule(w, i));
    step<R>(e, a, b, c, d, schedule(w, i + 1));
    step<R>(d, e, a, b, c, schedule(w, i + 2));
    step<R>(c, d, e, a, b, schedule(w, i + 3));
    step<R>(b, c, d, e, a, schedule(w, i + 4));
  }
}

}  // namespace

Sha1::Sha1()
    : state_{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0} {}

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3],
                e = state_[4];
  round<0>(a, b, c, d, e, w);
  round<1>(a, b, c, d, e, w);
  round<2>(a, b, c, d, e, w);
  round<3>(a, b, c, d, e, w);
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

void Sha1::update(std::string_view data) {
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

std::array<std::uint8_t, 20> Sha1::digest() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  // Pad: 0x80 then zeros until 56 mod 64, in one update.
  static constexpr char kPad[64] = {'\x80'};
  update(std::string_view(kPad, buffer_len_ < 56 ? 56 - buffer_len_
                                                 : 120 - buffer_len_));
  // Big-endian 64-bit length.
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
  }
  process_block(buffer_.data());
  buffer_len_ = 0;

  std::array<std::uint8_t, 20> out{};
  for (int i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::string Sha1::hex(std::string_view data) {
  Sha1 sha;
  sha.update(data);
  const auto d = sha.digest();
  return to_hex(d);
}

}  // namespace cg::crypto
