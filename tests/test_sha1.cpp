// SHA-1 conformance tests against RFC 3174 / FIPS 180 vectors, plus
// streaming-equivalence property tests.
#include "hash/sha1.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "util/rng.hpp"

namespace aadedupe::hash {
namespace {

struct Sha1Vector {
  const char* label;  // the test-name suffix
  const char* message;
  const char* digest_hex;
};

// Test names print the label (the struct's own bytes hold pointers).
void PrintTo(const Sha1Vector& v, std::ostream* os) { *os << v.label; }

constexpr Sha1Vector kVectors[] = {
    {"empty", "", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
    {"abc", "abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
    {"two_blocks", "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
    {"quick_brown_fox", "The quick brown fox jumps over the lazy dog",
     "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"},
    {"a", "a", "86f7e437faa5a7fce15d1ddcb9eaeaea377667b8"},
    {"one_block",
     "0123456701234567012345670123456701234567012345670123456701234567",
     "e0c094e867ef46c350ef54a7f59dd60bed92ae83"},
};

class Sha1Conformance : public ::testing::TestWithParam<Sha1Vector> {};

TEST_P(Sha1Conformance, MatchesReferenceDigest) {
  const Sha1Vector& v = GetParam();
  EXPECT_EQ(Sha1::hash(aadedupe::as_bytes(v.message)).hex(), v.digest_hex);
}

INSTANTIATE_TEST_SUITE_P(Vectors, Sha1Conformance,
                         ::testing::ValuesIn(kVectors));

TEST(Sha1, MillionAs) {
  Sha1 h;
  const std::string block(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(aadedupe::as_bytes(block));
  EXPECT_EQ(h.finish().hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, DigestSizeIs20) {
  EXPECT_EQ(Sha1::hash({}).size(), 20u);
}

class Sha1Streaming : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha1Streaming, SplitUpdatesMatchOneShot) {
  const std::size_t piece = GetParam();
  aadedupe::ByteBuffer message(8192 + 31);
  aadedupe::Xoshiro256 rng(7);
  rng.fill(message);

  const Digest expected = Sha1::hash(message);
  Sha1 h;
  for (std::size_t off = 0; off < message.size(); off += piece) {
    const std::size_t len = std::min(piece, message.size() - off);
    h.update(aadedupe::ConstByteSpan{message.data() + off, len});
  }
  EXPECT_EQ(h.finish(), expected);
}

INSTANTIATE_TEST_SUITE_P(PieceSizes, Sha1Streaming,
                         ::testing::Values(1, 2, 19, 63, 64, 65, 512, 8192));

class Sha1Lengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha1Lengths, FinishHandlesPaddingBoundaries) {
  const std::size_t n = GetParam();
  aadedupe::ByteBuffer message(n, std::byte{0xa5});
  const Digest one_shot = Sha1::hash(message);
  Sha1 h;
  for (std::size_t i = 0; i < n; ++i) {
    h.update(aadedupe::ConstByteSpan{message.data() + i, 1});
  }
  EXPECT_EQ(h.finish(), one_shot);
}

INSTANTIATE_TEST_SUITE_P(PaddingBoundaries, Sha1Lengths,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 121, 128));

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update(aadedupe::as_bytes("xyz"));
  const Digest first = h.finish();
  h.reset();
  h.update(aadedupe::as_bytes("xyz"));
  EXPECT_EQ(h.finish(), first);
}

TEST(Sha1, DiffersFromMd5Width) {
  EXPECT_NE(Sha1::hash(aadedupe::as_bytes("abc")).size(), 16u);
}

}  // namespace
}  // namespace aadedupe::hash
