// Table I calibration regression test: the synthetic generator's per-type
// dedup ratios must keep tracking the paper's measured values (this is
// the contract every figure bench builds on). Tolerances are generous
// enough for sampling noise at the reduced corpus size but tight enough
// to catch a generator regression.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <unordered_set>

#include "chunk/cdc_chunker.hpp"
#include "chunk/static_chunker.hpp"
#include "dataset/generator.hpp"
#include "hash/sha1.hpp"

namespace aadedupe::dataset {
namespace {

struct PaperRow {
  FileKind kind;
  double sc_dr;
  double cdc_dr;
  double tolerance;  // absolute, on the dedup ratio
};

// Tolerances scale with the magnitude of the redundancy signal.
constexpr PaperRow kRows[] = {
    {FileKind::kAvi, 1.0002, 1.0002, 0.01},
    {FileKind::kMp3, 1.001, 1.002, 0.01},
    {FileKind::kIso, 1.002, 1.002, 0.01},
    {FileKind::kDmg, 1.004, 1.004, 0.012},
    {FileKind::kRar, 1.008, 1.008, 0.015},
    {FileKind::kJpg, 1.009, 1.009, 0.015},
    {FileKind::kPdf, 1.015, 1.014, 0.02},
    {FileKind::kExe, 1.063, 1.062, 0.04},
    {FileKind::kVmdk, 1.286, 1.168, 0.07},
    {FileKind::kDoc, 1.231, 1.234, 0.07},
    {FileKind::kTxt, 1.232, 1.259, 0.07},
    {FileKind::kPpt, 1.275, 1.300, 0.08},
};

// Test names print the row's file type ("vmdk"), not the struct's bytes.
void PrintTo(const PaperRow& row, std::ostream* os) {
  *os << extension(row.kind);
}

double chunk_dr(const chunk::Chunker& chunker,
                const std::vector<ByteBuffer>& files) {
  std::unordered_set<std::string> seen;
  std::uint64_t total = 0, unique = 0;
  for (const ByteBuffer& content : files) {
    for (const chunk::ChunkRef& ref : chunker.split(content)) {
      total += ref.length;
      if (seen.insert(hash::Sha1::hash(ConstByteSpan{content}.subspan(
                                           ref.offset, ref.length))
                          .hex())
              .second) {
        unique += ref.length;
      }
    }
  }
  return unique == 0 ? 1.0
                     : static_cast<double>(total) /
                           static_cast<double>(unique);
}

class Table1Calibration : public ::testing::TestWithParam<PaperRow> {};

TEST_P(Table1Calibration, GeneratorTracksPaperRedundancy) {
  const PaperRow& row = GetParam();
  DatasetConfig config;
  config.seed = 20110926;
  DatasetGenerator generator(config);
  const Snapshot corpus = generator.kind_corpus(row.kind, 24ull << 20);

  // File-level dedup first, as in the paper's methodology.
  std::vector<ByteBuffer> files;
  std::set<std::string> file_digests;
  for (const auto& entry : corpus.files) {
    ByteBuffer content = materialize(entry.content);
    if (file_digests.insert(hash::Sha1::hash(content).hex()).second) {
      files.push_back(std::move(content));
    }
  }

  const chunk::StaticChunker sc;
  const chunk::CdcChunker cdc;
  const double sc_dr = chunk_dr(sc, files);
  const double cdc_dr = chunk_dr(cdc, files);
  EXPECT_NEAR(sc_dr, row.sc_dr, row.tolerance)
      << extension(row.kind) << " SC";
  EXPECT_NEAR(cdc_dr, row.cdc_dr, row.tolerance)
      << extension(row.kind) << " CDC";

  // Directional claims (Observation 3) on the types where the paper's gap
  // is meaningful.
  if (row.kind == FileKind::kVmdk) {
    EXPECT_GT(sc_dr, cdc_dr) << "SC must beat CDC on VM images";
  }
  if (row.kind == FileKind::kTxt || row.kind == FileKind::kPpt) {
    EXPECT_GT(cdc_dr, sc_dr) << "CDC must beat SC on edited documents";
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, Table1Calibration,
                         ::testing::ValuesIn(kRows));

}  // namespace
}  // namespace aadedupe::dataset
