// Unit tests for the crypto substrate against published test vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/base64.h"
#include "crypto/crc32c.h"
#include "crypto/hex.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"

namespace cg::crypto {
namespace {

// ------------------------------------------------------------- base64 ----

TEST(Base64Test, Rfc4648Vectors) {
  EXPECT_EQ(base64_encode(""), "");
  EXPECT_EQ(base64_encode("f"), "Zg==");
  EXPECT_EQ(base64_encode("fo"), "Zm8=");
  EXPECT_EQ(base64_encode("foo"), "Zm9v");
  EXPECT_EQ(base64_encode("foob"), "Zm9vYg==");
  EXPECT_EQ(base64_encode("fooba"), "Zm9vYmE=");
  EXPECT_EQ(base64_encode("foobar"), "Zm9vYmFy");
}

TEST(Base64Test, PaperIdentifierEncodesAsInLinkedInCase) {
  // §5.4 case study: the _ga user-id segment 444332364 is sent Base64'd.
  EXPECT_EQ(base64_encode("444332364"), "NDQ0MzMyMzY0");
}

TEST(Base64Test, UrlSafeAlphabetAndNoPadding) {
  const std::string bytes = "\xfb\xff\xfe";
  EXPECT_EQ(base64_encode(bytes), "+//+");
  EXPECT_EQ(base64url_encode(bytes), "-__-");
  EXPECT_EQ(base64url_encode("f"), "Zg");
}

TEST(Base64Test, DecodeRoundTrip) {
  const std::string data = "GA1.1.444332364.1746838827\x00\x01\xff";
  auto decoded = base64_decode(base64_encode(data));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(Base64Test, DecodeAcceptsBothAlphabetsAndNoPadding) {
  EXPECT_EQ(base64_decode("Zm9vYg"), "foob");
  EXPECT_EQ(base64_decode("-__-"), std::string("\xfb\xff\xfe"));
}

TEST(Base64Test, DecodeRejectsInvalid) {
  EXPECT_FALSE(base64_decode("a").has_value());       // 1 mod 4
  EXPECT_FALSE(base64_decode("Zm9v!A==").has_value());  // bad char
}

// ---------------------------------------------------------------- hex ----

TEST(HexTest, EncodesLowercase) {
  const std::uint8_t bytes[] = {0xDE, 0xAD, 0xBE, 0xEF, 0x00};
  EXPECT_EQ(to_hex(bytes), "deadbeef00");
}

// ---------------------------------------------------------------- md5 ----

TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(Md5::hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      Md5::hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(Md5::hex("1234567890123456789012345678901234567890"
                     "1234567890123456789012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, IncrementalMatchesOneShot) {
  Md5 md5;
  md5.update("message ");
  md5.update("digest");
  EXPECT_EQ(to_hex(md5.digest()), Md5::hex("message digest"));
}

TEST(Md5Test, BlockBoundaryLengths) {
  // Exercise lengths straddling the 64-byte block and 56-byte pad boundary.
  for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 128u}) {
    const std::string data(len, 'x');
    Md5 split;
    split.update(data.substr(0, len / 2));
    split.update(data.substr(len / 2));
    EXPECT_EQ(to_hex(split.digest()), Md5::hex(data)) << "len=" << len;
  }
}

// --------------------------------------------------------------- sha1 ----

TEST(Sha1Test, Fips180Vectors) {
  EXPECT_EQ(Sha1::hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(Sha1::hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(Sha1::hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  Sha1 sha;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) sha.update(chunk);
  EXPECT_EQ(to_hex(sha.digest()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, BlockBoundaryLengths) {
  for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 128u}) {
    const std::string data(len, 'q');
    Sha1 split;
    split.update(data.substr(0, 1));
    split.update(data.substr(1));
    EXPECT_EQ(to_hex(split.digest()), Sha1::hex(data)) << "len=" << len;
  }
}

// -------------------------------------------------------------- crc32c ----

TEST(Crc32cTest, Rfc3720Vectors) {
  // iSCSI (RFC 3720 §B.4) reference vectors for CRC32C/Castagnoli.
  EXPECT_EQ(crc32c(std::string(32, '\x00')), 0x8A9136AAu);
  EXPECT_EQ(crc32c(std::string(32, '\xFF')), 0x62A8AB43u);
  std::string ascending, descending;
  for (int i = 0; i < 32; ++i) {
    ascending.push_back(static_cast<char>(i));
    descending.push_back(static_cast<char>(31 - i));
  }
  EXPECT_EQ(crc32c(ascending), 0x46DD794Eu);
  EXPECT_EQ(crc32c(descending), 0x113FDB5Cu);
}

TEST(Crc32cTest, CheckValue) {
  // The classic CRC "check" input.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0x00000000u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "the first-party cookie jar, block by block";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Crc32c crc;
    crc.update(std::string_view(data).substr(0, split));
    crc.update(std::string_view(data).substr(split));
    EXPECT_EQ(crc.value(), crc32c(data)) << "split=" << split;
  }
}

// The plain one-byte-at-a-time table loop: the oracle for the sliced
// implementation.
std::uint32_t bytewise_crc32c(std::string_view data) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(c)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

TEST(Crc32cTest, SlicedMatchesBytewiseOracleAtAnyOffsetAndSplit) {
  std::uint64_t state = 0xC3C32C;
  // Backing storage with slack so every length can start at offsets 0..7.
  std::string backing(300 + 8, '\0');
  for (char& c : backing) c = static_cast<char>(splitmix64(state));
  for (std::size_t len = 0; len <= 300; ++len) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::string_view data =
          std::string_view(backing).substr(offset, len);
      const std::uint32_t expected = bytewise_crc32c(data);
      ASSERT_EQ(crc32c(data), expected) << "len=" << len << " off=" << offset;

      Crc32c chunked;
      std::size_t pos = 0;
      while (pos < data.size()) {
        const std::size_t chunk = std::min<std::size_t>(
            splitmix64(state) % 20, data.size() - pos);
        chunked.update(data.substr(pos, chunk));
        pos += chunk;
      }
      ASSERT_EQ(chunked.value(), expected)
          << "len=" << len << " off=" << offset;
    }
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  const std::string data = "CGAR block payload";
  const std::uint32_t good = crc32c(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = data;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      EXPECT_NE(crc32c(bad), good) << "byte=" << byte << " bit=" << bit;
    }
  }
}

// Property: distinct inputs used by the exfiltration matcher produce
// distinct encodings under every supported transform.
TEST(EncodingProperty, TransformsAreDeterministicAndDistinct) {
  const std::string a = "868308499845957651";  // paper's _fbp browser id
  const std::string b = "868308499845957652";
  EXPECT_EQ(Md5::hex(a), Md5::hex(a));
  EXPECT_NE(Md5::hex(a), Md5::hex(b));
  EXPECT_NE(Sha1::hex(a), Sha1::hex(b));
  EXPECT_NE(base64_encode(a), base64_encode(b));
}

}  // namespace
}  // namespace cg::crypto
