// The application-aware deduplication policy (paper Sections III.C/III.D):
// which chunking engine and which fingerprint function each application
// category gets, and how files are routed to index partitions.
//
//   compressed files          -> WFC  + 12-byte extended Rabin
//   static uncompressed files -> SC   + 16-byte MD5
//   dynamic uncompressed      -> CDC  + 20-byte SHA-1
//
// The partition key of the application-aware index is the file extension,
// matching Fig. 6's ".doc index / .mp3 index / ..." structure.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "chunk/cdc_chunker.hpp"
#include "chunk/chunker.hpp"
#include "chunk/fastcdc_chunker.hpp"
#include "chunk/static_chunker.hpp"
#include "chunk/whole_file_chunker.hpp"
#include "dataset/file_kind.hpp"
#include "hash/batch_hasher.hpp"
#include "hash/digest.hpp"
#include "hash/hash_kind.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace aadedupe::core {

/// The per-category chunker+hash assignment.
struct CategoryPolicy {
  const chunk::Chunker* chunker = nullptr;
  hash::HashKind hash_kind = hash::HashKind::kSha1;
};

/// Tunables for the policy table. The defaults match the paper's setup with
/// one deliberate upgrade: the dynamic category runs the (post-paper)
/// FastCDC engine, which produces the same expected/min/max chunk-size
/// distribution as the paper's Rabin CDC at ~4x the scan throughput. The
/// kRabinCdc knob keeps the paper-exact engine available for ablations.
struct PolicyConfig {
  /// Engine for dynamic uncompressed files.
  enum class DynamicEngine : std::uint8_t { kRabinCdc, kFastCdc };
  DynamicEngine dynamic_engine = DynamicEngine::kFastCdc;
  /// Fixed chunk size for the static category.
  std::size_t static_chunk_size = chunk::StaticChunker::kDefaultChunkSize;
  /// CDC parameters (expected/min/max) for the dynamic category.
  chunk::CdcParams cdc;
};

/// Immutable policy table; owns one chunker instance per engine. Thread-
/// safe after construction (chunkers are stateless per call).
class DedupPolicy {
 public:
  DedupPolicy() : DedupPolicy(PolicyConfig{}) {}

  explicit DedupPolicy(const PolicyConfig& config)
      : wfc_(std::make_unique<chunk::WholeFileChunker>()),
        sc_(std::make_unique<chunk::StaticChunker>(config.static_chunk_size)) {
    if (config.dynamic_engine == PolicyConfig::DynamicEngine::kFastCdc) {
      chunk::FastCdcParams params;
      params.expected_size = config.cdc.expected_size;
      params.min_size = config.cdc.min_size;
      params.max_size = config.cdc.max_size;
      dynamic_ = std::make_unique<chunk::FastCdcChunker>(params);
    } else {
      dynamic_ = std::make_unique<chunk::CdcChunker>(config.cdc);
    }
  }

  CategoryPolicy for_category(dataset::AppCategory category) const {
    switch (category) {
      case dataset::AppCategory::kCompressed:
        return {wfc_.get(), hash::HashKind::kRabin96};
      case dataset::AppCategory::kStaticUncompressed:
        return {sc_.get(), hash::HashKind::kMd5};
      case dataset::AppCategory::kDynamicUncompressed:
        return {dynamic_.get(), hash::HashKind::kSha1};
    }
    return {dynamic_.get(), hash::HashKind::kSha1};  // unreachable
  }

  CategoryPolicy for_kind(dataset::FileKind kind) const {
    return for_category(dataset::category_of(kind));
  }

  /// Index-partition key for a file kind (Fig. 6: one small index per
  /// application/file type).
  static std::string partition_key(dataset::FileKind kind) {
    return std::string(dataset::extension(kind));
  }

 private:
  std::unique_ptr<chunk::WholeFileChunker> wfc_;
  std::unique_ptr<chunk::StaticChunker> sc_;
  std::unique_ptr<chunk::Chunker> dynamic_;  // Rabin CDC or FastCDC
};

/// Output of the pure chunk+fingerprint front end for one file:
/// digests[i] fingerprints chunks[i].
struct FileChunkPlan {
  std::vector<chunk::ChunkRef> chunks;
  std::vector<hash::Digest> digests;
};

/// Fingerprint every chunk of one file as a single batch through the
/// runtime-dispatched BatchHasher (SHA-NI / AVX2 / SSE2 multi-buffer with a
/// scalar fallback — see hash/batch_hasher.hpp). All rungs are bit-exact
/// with compute_digest(), so dedup metrics are identical to the historical
/// one-digest-at-a-time loop on every machine.
inline void fingerprint_chunks(const CategoryPolicy& policy,
                               ConstByteSpan content, FileChunkPlan& plan) {
  std::vector<ConstByteSpan> views;
  views.reserve(plan.chunks.size());
  for (const chunk::ChunkRef& ref : plan.chunks) {
    views.push_back(content.subspan(ref.offset, ref.length));
  }
  hash::default_batch_hasher().hash_batch(policy.hash_kind, views,
                                          plan.digests);
}

/// Stateless front end of the deduplication pipeline: split `content` with
/// the category's engine and fingerprint every chunk with the category's
/// hash (Rabin-96 / MD5 / SHA-1 per the policy table). Touches no shared
/// state, so any number of files may be processed concurrently — this is
/// what the session engine's first phase fans out, each worker handing its
/// file's chunks to the batch hasher in one call.
inline FileChunkPlan chunk_and_fingerprint(const CategoryPolicy& policy,
                                           ConstByteSpan content) {
  FileChunkPlan plan;
  plan.chunks = policy.chunker->split(content);
  fingerprint_chunks(policy, content, plan);
  return plan;
}

/// Instrumented variant: attributes the split to a kChunk span and the
/// hashing batch to a kFingerprint span labelled "<category>@<engine>"
/// (e.g. "doc@shani"), so run reports show which dispatch rung actually
/// executed. With a null telemetry context this is exactly the plain
/// overload — two spans per *file* keeps observation cost negligible.
inline FileChunkPlan chunk_and_fingerprint(const CategoryPolicy& policy,
                                           ConstByteSpan content,
                                           telemetry::Telemetry* telemetry,
                                           std::string_view category) {
  if (telemetry == nullptr) return chunk_and_fingerprint(policy, content);
  FileChunkPlan plan;
  {
    telemetry::TraceSpan span(&telemetry->trace, telemetry::Stage::kChunk,
                              category);
    plan.chunks = policy.chunker->split(content);
  }
  std::string label(category);
  label += '@';
  label += hash::default_batch_hasher().impl_tag(policy.hash_kind);
  telemetry::TraceSpan span(&telemetry->trace, telemetry::Stage::kFingerprint,
                            label);
  fingerprint_chunks(policy, content, plan);
  return plan;
}

/// File size filter (paper Section III.B): files below the threshold skip
/// deduplication entirely and are only packed into containers.
class FileSizeFilter {
 public:
  static constexpr std::uint64_t kDefaultThreshold = 10 * 1024;

  explicit FileSizeFilter(std::uint64_t threshold = kDefaultThreshold)
      : threshold_(threshold) {}

  bool is_tiny(std::uint64_t file_size) const noexcept {
    return file_size < threshold_;
  }

  std::uint64_t threshold() const noexcept { return threshold_; }

 private:
  std::uint64_t threshold_;
};

}  // namespace aadedupe::core
