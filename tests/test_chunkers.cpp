// Chunking-engine tests: exact-cover invariants for all three engines,
// SC/WFC shape checks, CDC bounds/determinism, and the boundary-shifting
// property that motivates CDC (paper Section II, ref [14]).
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>

#include "chunk/cdc_chunker.hpp"
#include "chunk/static_chunker.hpp"
#include "chunk/whole_file_chunker.hpp"
#include "hash/sha1.hpp"
#include "util/rng.hpp"

namespace aadedupe::chunk {
namespace {

ByteBuffer random_bytes(std::size_t n, std::uint64_t seed) {
  ByteBuffer data(n);
  Xoshiro256 rng(seed);
  rng.fill(data);
  return data;
}

// ---- Exact-cover property across engines and sizes. ----

struct CoverCase {
  const char* engine;
  std::size_t size;
};

// Test names print "wfc_100000" (the struct's own bytes hold a pointer).
void PrintTo(const CoverCase& c, std::ostream* os) {
  *os << c.engine << '_' << c.size;
}

class ExactCover : public ::testing::TestWithParam<CoverCase> {
 protected:
  std::unique_ptr<Chunker> make(const std::string& name) {
    if (name == "wfc") return std::make_unique<WholeFileChunker>();
    if (name == "sc") return std::make_unique<StaticChunker>();
    return std::make_unique<CdcChunker>();
  }
};

TEST_P(ExactCover, SplitCoversInputExactly) {
  const CoverCase& c = GetParam();
  const ByteBuffer data = random_bytes(c.size, c.size + 1);
  const auto chunker = make(c.engine);
  const auto chunks = chunker->split(data);
  EXPECT_TRUE(is_exact_cover(chunks, data.size()))
      << c.engine << " size=" << c.size;
  if (c.size == 0) {
    EXPECT_TRUE(chunks.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndSizes, ExactCover,
    ::testing::Values(CoverCase{"wfc", 0}, CoverCase{"wfc", 1},
                      CoverCase{"wfc", 100000}, CoverCase{"sc", 0},
                      CoverCase{"sc", 1}, CoverCase{"sc", 8191},
                      CoverCase{"sc", 8192}, CoverCase{"sc", 8193},
                      CoverCase{"sc", 100000}, CoverCase{"cdc", 0},
                      CoverCase{"cdc", 1}, CoverCase{"cdc", 2048},
                      CoverCase{"cdc", 100000}, CoverCase{"cdc", 1000000}));

// ---- WFC ----

TEST(WholeFileChunker, SingleChunkSpansFile) {
  WholeFileChunker wfc;
  const ByteBuffer data = random_bytes(12345, 1);
  const auto chunks = wfc.split(data);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].offset, 0u);
  EXPECT_EQ(chunks[0].length, 12345u);
  EXPECT_EQ(wfc.name(), "wfc");
}

// ---- SC ----

TEST(StaticChunker, FixedSizesWithShortTail) {
  StaticChunker sc(8192);
  const ByteBuffer data = random_bytes(8192 * 3 + 100, 2);
  const auto chunks = sc.split(data);
  ASSERT_EQ(chunks.size(), 4u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(chunks[static_cast<std::size_t>(i)].length, 8192u);
  EXPECT_EQ(chunks[3].length, 100u);
}

TEST(StaticChunker, CustomChunkSize) {
  StaticChunker sc(1000);
  const auto chunks = sc.split(random_bytes(2500, 3));
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[2].length, 500u);
}

TEST(StaticChunker, RejectsZeroChunkSize) {
  EXPECT_THROW(StaticChunker(0), PreconditionError);
}

TEST(StaticChunker, IdenticalContentAtAlignedOffsetsYieldsIdenticalChunks) {
  // The property the dataset generator and Observation 3 rely on: an 8 KB
  // block placed at any 8 KB-aligned offset produces the same chunk bytes.
  StaticChunker sc;
  const ByteBuffer block = random_bytes(8192, 4);
  ByteBuffer file_a, file_b;
  append(file_a, block);
  append(file_a, random_bytes(8192, 5));
  append(file_b, random_bytes(8192, 6));
  append(file_b, block);

  const auto ca = sc.split(file_a);
  const auto cb = sc.split(file_b);
  const auto da = hash::Sha1::hash(
      ConstByteSpan{file_a}.subspan(ca[0].offset, ca[0].length));
  const auto db = hash::Sha1::hash(
      ConstByteSpan{file_b}.subspan(cb[1].offset, cb[1].length));
  EXPECT_EQ(da, db);
}

// ---- CDC ----

TEST(CdcChunker, RespectsMinAndMaxBounds) {
  CdcChunker cdc;
  const ByteBuffer data = random_bytes(1 << 20, 7);
  const auto chunks = cdc.split(data);
  ASSERT_GT(chunks.size(), 1u);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].length, cdc.params().min_size);
    EXPECT_LE(chunks[i].length, cdc.params().max_size);
  }
  // Final chunk may be shorter than min (end of stream) but never longer
  // than max.
  EXPECT_LE(chunks.back().length, cdc.params().max_size);
}

TEST(CdcChunker, ExpectedChunkSizeIsRoughly8K) {
  CdcChunker cdc;
  const ByteBuffer data = random_bytes(8 << 20, 8);
  const auto chunks = cdc.split(data);
  const double average =
      static_cast<double>(data.size()) / static_cast<double>(chunks.size());
  // Geometric cut process with min 2K / max 16K bounds: expect the
  // average within [5K, 12K].
  EXPECT_GT(average, 5000.0);
  EXPECT_LT(average, 12000.0);
}

TEST(CdcChunker, Deterministic) {
  CdcChunker cdc;
  const ByteBuffer data = random_bytes(300000, 9);
  EXPECT_EQ(cdc.split(data), cdc.split(data));
}

TEST(CdcChunker, ZeroRegionsForceMaxSizeCuts) {
  // Long zero runs never match the boundary pattern, so CDC emits
  // max-size chunks — the behaviour behind Observation 3's VMDK result.
  CdcChunker cdc;
  const ByteBuffer zeros(1 << 20, std::byte{0});
  const auto chunks = cdc.split(zeros);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].length, cdc.params().max_size);
  }
}

TEST(CdcChunker, RejectsInvalidParams) {
  CdcParams bad;
  bad.expected_size = 3000;  // not a power of two
  EXPECT_THROW(CdcChunker{bad}, PreconditionError);
  CdcParams bad2;
  bad2.min_size = 8;  // below window size
  EXPECT_THROW(CdcChunker{bad2}, PreconditionError);
  CdcParams bad3;
  bad3.max_size = 4096;  // below expected
  EXPECT_THROW(CdcChunker{bad3}, PreconditionError);
}

// The defining CDC property: inserting bytes near the front only disturbs
// chunks around the edit; the chunk stream resynchronizes, so most chunk
// digests are preserved. SC, by contrast, loses everything after the edit.
class BoundaryShift : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BoundaryShift, CdcResynchronizesAfterInsertScDoesNot) {
  const std::size_t insert_len = GetParam();
  const ByteBuffer original = random_bytes(1 << 20, 10);

  ByteBuffer edited;
  edited.reserve(original.size() + insert_len);
  append(edited, ConstByteSpan{original.data(), 100});
  const ByteBuffer inserted = random_bytes(insert_len, 11);
  append(edited, inserted);
  append(edited, ConstByteSpan{original.data() + 100,
                               original.size() - 100});

  auto digest_set = [](const Chunker& chunker, const ByteBuffer& data) {
    std::set<std::string> out;
    for (const ChunkRef& ref : chunker.split(data)) {
      out.insert(hash::Sha1::hash(
                     ConstByteSpan{data}.subspan(ref.offset, ref.length))
                     .hex());
    }
    return out;
  };
  auto shared_fraction = [&](const Chunker& chunker) {
    const auto a = digest_set(chunker, original);
    const auto b = digest_set(chunker, edited);
    std::size_t shared = 0;
    for (const auto& d : b) shared += a.count(d);
    return static_cast<double>(shared) / static_cast<double>(b.size());
  };

  CdcChunker cdc;
  StaticChunker sc;
  const double cdc_shared = shared_fraction(cdc);
  const double sc_shared = shared_fraction(sc);

  EXPECT_GT(cdc_shared, 0.90) << "CDC must resync after an insert";
  EXPECT_LT(sc_shared, 0.05) << "SC must lose alignment after an insert";
}

INSTANTIATE_TEST_SUITE_P(InsertLengths, BoundaryShift,
                         ::testing::Values(1, 13, 100, 1001));

}  // namespace
}  // namespace aadedupe::chunk
