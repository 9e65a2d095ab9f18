// MD5 conformance tests against the RFC 1321 appendix test suite, plus
// streaming-equivalence property tests.
#include "hash/md5.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "util/rng.hpp"

namespace aadedupe::hash {
namespace {

struct Md5Vector {
  const char* label;  // the test-name suffix
  const char* message;
  const char* digest_hex;
};

// Test names print the label (the struct's own bytes hold pointers).
void PrintTo(const Md5Vector& v, std::ostream* os) { *os << v.label; }

// RFC 1321, section A.5.
constexpr Md5Vector kRfc1321Vectors[] = {
    {"rfc1321_empty", "", "d41d8cd98f00b204e9800998ecf8427e"},
    {"rfc1321_a", "a", "0cc175b9c0f1b6a831c399e269772661"},
    {"rfc1321_abc", "abc", "900150983cd24fb0d6963f7d28e17f72"},
    {"rfc1321_message_digest", "message digest",
     "f96b697d7cb7938d525a2f31aaf161d0"},
    {"rfc1321_lowercase", "abcdefghijklmnopqrstuvwxyz",
     "c3fcd3d76192e4007dfb496cca67e13b"},
    {"rfc1321_alphanumeric",
     "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
     "d174ab98d277d9f5a5611c2c9f419d9f"},
    {"rfc1321_digits",
     "1234567890123456789012345678901234567890123456789012345678901234567890"
     "1234567890",
     "57edf4a22be3c955ac49da2e2107b67a"},
};

class Md5Rfc1321 : public ::testing::TestWithParam<Md5Vector> {};

TEST_P(Md5Rfc1321, MatchesReferenceDigest) {
  const Md5Vector& v = GetParam();
  EXPECT_EQ(Md5::hash(aadedupe::as_bytes(v.message)).hex(), v.digest_hex);
}

INSTANTIATE_TEST_SUITE_P(Vectors, Md5Rfc1321,
                         ::testing::ValuesIn(kRfc1321Vectors));

TEST(Md5, MillionAs) {
  // Classic extended vector: 10^6 repetitions of 'a'.
  Md5 h;
  const std::string block(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(aadedupe::as_bytes(block));
  EXPECT_EQ(h.finish().hex(), "7707d6ae4e027c70eea2a935c2296f21");
}

TEST(Md5, DigestSizeIs16) {
  EXPECT_EQ(Md5::hash({}).size(), 16u);
}

// Streaming equivalence: hashing a message in arbitrary-size pieces must
// match the one-shot hash.
class Md5Streaming : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Md5Streaming, SplitUpdatesMatchOneShot) {
  const std::size_t piece = GetParam();
  aadedupe::ByteBuffer message(4096 + 17);
  aadedupe::Xoshiro256 rng(99);
  rng.fill(message);

  const Digest expected = Md5::hash(message);
  Md5 h;
  for (std::size_t off = 0; off < message.size(); off += piece) {
    const std::size_t len = std::min(piece, message.size() - off);
    h.update(aadedupe::ConstByteSpan{message.data() + off, len});
  }
  EXPECT_EQ(h.finish(), expected);
}

INSTANTIATE_TEST_SUITE_P(PieceSizes, Md5Streaming,
                         ::testing::Values(1, 3, 7, 63, 64, 65, 127, 128,
                                           1000, 4096));

// Boundary-length messages around the 64-byte block and 56-byte padding
// cutover points.
class Md5Lengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Md5Lengths, FinishHandlesPaddingBoundaries) {
  const std::size_t n = GetParam();
  aadedupe::ByteBuffer message(n, std::byte{0x5a});
  const Digest one_shot = Md5::hash(message);
  // Byte-at-a-time must agree — exercises every internal buffer state.
  Md5 h;
  for (std::size_t i = 0; i < n; ++i) {
    h.update(aadedupe::ConstByteSpan{message.data() + i, 1});
  }
  EXPECT_EQ(h.finish(), one_shot);
  EXPECT_EQ(one_shot.size(), 16u);
}

INSTANTIATE_TEST_SUITE_P(PaddingBoundaries, Md5Lengths,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 121, 128));

TEST(Md5, ResetAllowsReuse) {
  Md5 h;
  h.update(aadedupe::as_bytes("abc"));
  const Digest first = h.finish();
  h.reset();
  h.update(aadedupe::as_bytes("abc"));
  EXPECT_EQ(h.finish(), first);
}

TEST(Md5, DifferentMessagesDiffer) {
  EXPECT_NE(Md5::hash(aadedupe::as_bytes("abc")),
            Md5::hash(aadedupe::as_bytes("abd")));
}

}  // namespace
}  // namespace aadedupe::hash
