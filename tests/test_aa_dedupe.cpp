// AA-Dedupe-specific tests: size filter routing, application-aware index
// structure, per-category chunk/hash policy, container shipping, index
// sync, and results that do not depend on the worker count.
#include "core/aa_dedupe.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "backup/keys.hpp"
#include "core/policy.hpp"
#include "dataset/generator.hpp"
#include "hash/rabin.hpp"
#include "index/checkpoint.hpp"

namespace aadedupe::core {
namespace {

dataset::DatasetConfig test_config(std::uint64_t bytes = 6ull << 20,
                                   std::uint64_t seed = 13) {
  dataset::DatasetConfig config;
  config.seed = seed;
  config.session_bytes = bytes;
  config.max_file_bytes = 1 << 20;
  return config;
}

TEST(DedupPolicy, CategoryAssignmentsMatchPaper) {
  const DedupPolicy policy;
  // Compressed -> WFC + Rabin96.
  const auto compressed = policy.for_kind(dataset::FileKind::kMp3);
  EXPECT_EQ(compressed.chunker->name(), "wfc");
  EXPECT_EQ(compressed.hash_kind, hash::HashKind::kRabin96);
  // Static uncompressed -> SC + MD5.
  const auto static_data = policy.for_kind(dataset::FileKind::kVmdk);
  EXPECT_EQ(static_data.chunker->name(), "sc");
  EXPECT_EQ(static_data.hash_kind, hash::HashKind::kMd5);
  // Dynamic uncompressed -> CDC + SHA-1.
  const auto dynamic_data = policy.for_kind(dataset::FileKind::kDoc);
  EXPECT_EQ(dynamic_data.chunker->name(), "fastcdc");
  EXPECT_EQ(dynamic_data.hash_kind, hash::HashKind::kSha1);
}

TEST(DedupPolicy, PartitionKeyIsExtension) {
  EXPECT_EQ(DedupPolicy::partition_key(dataset::FileKind::kVmdk), "vmdk");
  EXPECT_EQ(DedupPolicy::partition_key(dataset::FileKind::kJpg), "jpg");
}

TEST(FileSizeFilter, ThresholdAtTenKilobytes) {
  const FileSizeFilter filter;
  EXPECT_TRUE(filter.is_tiny(0));
  EXPECT_TRUE(filter.is_tiny(10 * 1024 - 1));
  EXPECT_FALSE(filter.is_tiny(10 * 1024));
}

TEST(AaDedupe, IndexPartitionsAreFileExtensions) {
  cloud::CloudTarget target;
  AaDedupeScheme scheme(target);
  dataset::DatasetGenerator gen(test_config());
  scheme.backup(gen.initial());

  const auto partitions = scheme.aa_index().partitions();
  const std::set<std::string> keys(partitions.begin(), partitions.end());
  // Every partition is one of the 12 application extensions — and never
  // the tiny stream (tiny files bypass the index entirely).
  for (const auto& key : keys) {
    bool known = false;
    for (const auto kind : dataset::all_file_kinds()) {
      known |= (key == dataset::extension(kind));
    }
    EXPECT_TRUE(known) << "unexpected partition " << key;
  }
  EXPECT_FALSE(keys.contains("tiny"));
  EXPECT_GE(keys.size(), 10u);
}

TEST(AaDedupe, TinyFilesNeverEnterTheIndex) {
  cloud::CloudTarget target;
  AaDedupeScheme scheme(target);

  // A snapshot of only tiny files: the index must stay empty.
  dataset::Snapshot snapshot;
  snapshot.session = 0;
  for (int i = 0; i < 50; ++i) {
    dataset::FileEntry f;
    f.path = "tiny/t" + std::to_string(i) + ".txt";
    f.kind = dataset::FileKind::kTxt;
    f.content.kind = f.kind;
    f.content.segments.push_back(dataset::Segment{
        dataset::Segment::Type::kUnique, static_cast<std::uint64_t>(i),
        5000});
    snapshot.files.push_back(std::move(f));
  }
  scheme.backup(snapshot);
  EXPECT_EQ(scheme.aa_index().total_size(), 0u);
  // But the data is stored (packed into containers) and restorable.
  const ByteBuffer restored = scheme.restore_file("tiny/t7.txt");
  EXPECT_EQ(restored, dataset::materialize(snapshot.files[7].content));
}

TEST(AaDedupe, TinyFilesArePackedIntoFewContainers) {
  cloud::CloudTarget target;
  AaDedupeScheme scheme(target);
  dataset::Snapshot snapshot;
  snapshot.session = 0;
  // 200 x 5 KB = ~1 MB of tiny files -> a handful of 1 MB containers, not
  // 200 objects (Cumulus-style aggregation, paper Section III.B).
  for (int i = 0; i < 200; ++i) {
    dataset::FileEntry f;
    f.path = "tiny/t" + std::to_string(i) + ".txt";
    f.kind = dataset::FileKind::kTxt;
    f.content.kind = f.kind;
    f.content.segments.push_back(dataset::Segment{
        dataset::Segment::Type::kUnique, static_cast<std::uint64_t>(i),
        5000});
    snapshot.files.push_back(std::move(f));
  }
  const auto report = scheme.backup(snapshot);
  EXPECT_LE(report.upload_requests, 10u);
}

TEST(AaDedupe, IndexImageSyncedToCloud) {
  cloud::CloudTarget target;
  AaDedupeScheme scheme(target);
  dataset::DatasetGenerator gen(test_config(2ull << 20));
  scheme.backup(gen.initial());

  const std::string key = backup::keys::session_meta("AA-Dedupe", 0, "index");
  ASSERT_TRUE(target.store().exists(key));
  // The synced object is a checkpoint stream (the first session carries
  // the full base) and must reload into an equivalent partitioned index.
  const ByteBuffer image = *target.store().get(key);
  ASSERT_TRUE(index::is_checkpoint_stream(image));
  index::PartitionedIndex reloaded;
  index::BufferCheckpointSource source(image);
  reloaded.restore(source);
  EXPECT_EQ(reloaded.total_size(), scheme.aa_index().total_size());
  EXPECT_EQ(reloaded.partitions(), scheme.aa_index().partitions());
}

TEST(AaDedupe, SecondSessionSyncsIndexDelta) {
  // Periodic metadata sync ships deltas: session 1's index object only
  // carries what changed since session 0, so replaying 0 then 1 equals
  // the client's live index — and the delta is much smaller than a base.
  cloud::CloudTarget target;
  AaDedupeScheme scheme(target);
  dataset::DatasetGenerator gen(test_config(2ull << 20));
  auto snapshot = gen.initial();
  scheme.backup(snapshot);
  scheme.backup(gen.next(snapshot));

  const ByteBuffer base =
      *target.store().get(backup::keys::session_meta("AA-Dedupe", 0, "index"));
  const ByteBuffer delta =
      *target.store().get(backup::keys::session_meta("AA-Dedupe", 1, "index"));
  EXPECT_LT(delta.size(), base.size() / 2);

  index::PartitionedIndex replayed;
  index::BufferCheckpointSource base_source(base);
  replayed.restore(base_source);
  index::BufferCheckpointSource delta_source(delta);
  replayed.restore(delta_source);
  EXPECT_EQ(replayed.total_size(), scheme.aa_index().total_size());
  EXPECT_EQ(replayed.partitions(), scheme.aa_index().partitions());
}

TEST(AaDedupe, WithinFileDuplicatesCommitOnceInBatchedFrontEnd) {
  // A file that repeats the same content: the batched commit's shard
  // probe sees every repeat as absent, and must still store and index each
  // distinct chunk once.
  dataset::Snapshot snapshot;
  snapshot.session = 0;
  dataset::FileEntry f;
  f.path = "data/repeats.doc";
  f.kind = dataset::FileKind::kDoc;
  f.content.kind = f.kind;
  for (int i = 0; i < 8; ++i) {
    f.content.segments.push_back(dataset::Segment{
        dataset::Segment::Type::kUnique, 42, 96 * 1024});  // same seed
  }
  snapshot.files.push_back(f);

  const ByteBuffer content = dataset::materialize(f.content);
  const FileChunkPlan plan =
      chunk_and_fingerprint(DedupPolicy().for_kind(f.kind), content);
  const std::set<hash::Digest> distinct(plan.digests.begin(),
                                        plan.digests.end());
  ASSERT_LT(distinct.size(), plan.digests.size()) << "file must repeat";

  cloud::CloudTarget target;
  AaDedupeOptions options;
  options.worker_threads = 4;
  AaDedupeScheme scheme(target, options);
  const auto report = scheme.backup(snapshot);

  EXPECT_EQ(scheme.restore_file(f.path), content);
  EXPECT_EQ(scheme.aa_index().total_size(), distinct.size());
  // Dedup of the repeats actually happened: shipped far less than the
  // logical 768 KB.
  EXPECT_LT(report.transferred_bytes, 8u * 96u * 1024u);
}

TEST(AaDedupe, IndexSyncCanBeDisabled) {
  cloud::CloudTarget target;
  AaDedupeOptions options;
  options.sync_index = false;
  AaDedupeScheme scheme(target, options);
  dataset::DatasetGenerator gen(test_config(2ull << 20));
  scheme.backup(gen.initial());
  EXPECT_FALSE(target.store().exists(
      backup::keys::session_meta("AA-Dedupe", 0, "index")));
}

TEST(AaDedupe, RecipesSyncedToCloud) {
  cloud::CloudTarget target;
  AaDedupeScheme scheme(target);
  dataset::DatasetGenerator gen(test_config(2ull << 20));
  const auto snapshot = gen.initial();
  scheme.backup(snapshot);

  const auto image = target.store().get(
      backup::keys::session_meta("AA-Dedupe", 0, "recipes"));
  ASSERT_TRUE(image.has_value());
  const auto recipes = container::RecipeStore::deserialize(*image);
  EXPECT_EQ(recipes.size(), snapshot.files.size());
}

TEST(AaDedupe, ParallelAndSerialProduceSameRestoredBytes) {
  dataset::DatasetGenerator gen(test_config(4ull << 20));
  const auto snapshot = gen.initial();

  cloud::CloudTarget target_p, target_s;
  AaDedupeOptions parallel_opts;
  parallel_opts.worker_threads = 8;
  AaDedupeOptions serial_opts;
  serial_opts.worker_threads = 1;

  AaDedupeScheme parallel_scheme(target_p, parallel_opts);
  AaDedupeScheme serial_scheme(target_s, serial_opts);
  parallel_scheme.backup(snapshot);
  serial_scheme.backup(snapshot);

  for (std::size_t i = 0; i < snapshot.files.size();
       i += (i + 13 < snapshot.files.size() ? std::size_t{13} : std::size_t{1})) {
    const auto& file = snapshot.files[i];
    EXPECT_EQ(parallel_scheme.restore_file(file.path),
              serial_scheme.restore_file(file.path))
        << file.path;
  }
  // Same logical dedup: identical index contents.
  EXPECT_EQ(parallel_scheme.aa_index().total_size(),
            serial_scheme.aa_index().total_size());
}

TEST(AaDedupe, ResultsDoNotDependOnWorkerCount) {
  // Oracle for the batched commit: chunk_and_fingerprint, called directly,
  // gives every file's digest sequence and every partition's distinct
  // digests. One worker and eight workers must both match it over three
  // sessions (so cross-session dedup state is exercised), with a 1 MiB
  // batch budget that forces the front end through many batches. Each
  // distinct chunk is stored once: within a partition, every recipe entry
  // with the same digest points at the same location.
  dataset::DatasetGenerator gen(test_config(4ull << 20));
  const std::vector<dataset::Snapshot> sessions = gen.sessions(3);

  cloud::CloudTarget target_1, target_8;
  AaDedupeOptions opts_1;
  opts_1.front_end_batch_bytes = 1 << 20;
  opts_1.worker_threads = 1;
  AaDedupeOptions opts_8 = opts_1;
  opts_8.worker_threads = 8;
  AaDedupeScheme one(target_1, opts_1);
  AaDedupeScheme eight(target_8, opts_8);

  const DedupPolicy policy;
  const FileSizeFilter filter;
  std::map<std::string, std::set<hash::Digest>> distinct;  // per partition
  // Per scheme: (partition, digest) -> the one location it was stored at.
  std::map<std::pair<std::string, hash::Digest>, index::ChunkLocation>
      stored[2];
  for (const dataset::Snapshot& snapshot : sessions) {
    one.backup(snapshot);
    eight.backup(snapshot);
    for (const dataset::FileEntry& file : snapshot.files) {
      const ByteBuffer content = dataset::materialize(file.content);
      std::vector<hash::Digest> expected;
      std::string partition;  // tiny files carry no tag
      if (!filter.is_tiny(file.size())) {
        partition = DedupPolicy::partition_key(file.kind);
        expected = chunk_and_fingerprint(policy.for_kind(file.kind), content)
                       .digests;
        distinct[partition].insert(expected.begin(), expected.end());
      } else if (!content.empty()) {
        expected.push_back(hash::Rabin96::hash(content));
      }
      for (int s = 0; s < 2; ++s) {
        const container::FileRecipe* recipe =
            (s == 0 ? one : eight).recipes().find(file.path);
        ASSERT_NE(recipe, nullptr) << file.path;
        EXPECT_EQ(recipe->tag, partition) << file.path;
        std::vector<hash::Digest> listed;
        for (const container::RecipeEntry& entry : recipe->entries) {
          listed.push_back(entry.digest);
          if (partition.empty()) continue;  // tiny files are not deduped
          const auto [it, first] =
              stored[s].emplace(std::pair{partition, entry.digest},
                                entry.location);
          EXPECT_TRUE(first || it->second == entry.location) << file.path;
        }
        EXPECT_EQ(listed, expected) << file.path;
      }
    }
  }

  const auto rows_1 = one.application_stats();
  const auto rows_8 = eight.application_stats();
  ASSERT_EQ(rows_1.size(), distinct.size() + 1);  // + the "tiny" row
  ASSERT_EQ(rows_1.size(), rows_8.size());
  for (std::size_t i = 0; i < rows_1.size(); ++i) {
    const auto& a = rows_1[i];
    const auto& b = rows_8[i];
    EXPECT_EQ(a.partition, b.partition);
    if (a.partition != "tiny") {
      EXPECT_EQ(a.index_entries, distinct.at(a.partition).size())
          << a.partition;
    }
    EXPECT_EQ(a.index_entries, b.index_entries) << a.partition;
    EXPECT_EQ(a.index_lookups, b.index_lookups) << a.partition;
    EXPECT_EQ(a.index_hits, b.index_hits) << a.partition;
    EXPECT_EQ(a.session_files, b.session_files) << a.partition;
    EXPECT_EQ(a.session_bytes, b.session_bytes) << a.partition;
    EXPECT_EQ(a.session_chunks, b.session_chunks) << a.partition;
    EXPECT_EQ(a.session_new_bytes, b.session_new_bytes) << a.partition;
  }

  const dataset::Snapshot& last = sessions.back();
  for (std::size_t i = 0; i < last.files.size(); i += 7) {
    const auto& file = last.files[i];
    const ByteBuffer content = dataset::materialize(file.content);
    EXPECT_EQ(one.restore_file(file.path), content) << file.path;
    EXPECT_EQ(eight.restore_file(file.path), content) << file.path;
  }
}

TEST(AaDedupe, SecondSessionReusesChunksAcrossSessions) {
  cloud::CloudTarget target;
  AaDedupeScheme scheme(target);
  dataset::DatasetGenerator gen(test_config());
  const auto sessions = gen.sessions(2);
  const auto r0 = scheme.backup(sessions[0]);
  const auto r1 = scheme.backup(sessions[1]);
  EXPECT_LT(r1.transferred_bytes, r0.transferred_bytes / 3)
      << "unchanged week-over-week data must dedup away";
}

TEST(AaDedupe, DigestWidthsFollowCategoryPolicy) {
  cloud::CloudTarget target;
  AaDedupeScheme scheme(target);
  dataset::DatasetGenerator gen(test_config());
  const auto snapshot = gen.initial();
  scheme.backup(snapshot);

  for (const auto& file : snapshot.files) {
    if (file.size() < 10 * 1024) continue;
    const auto* recipe = scheme.recipes().find(file.path);
    ASSERT_NE(recipe, nullptr) << file.path;
    const std::size_t expected_width = [&] {
      switch (dataset::category_of(file.kind)) {
        case dataset::AppCategory::kCompressed:
          return std::size_t{12};  // Rabin-96
        case dataset::AppCategory::kStaticUncompressed:
          return std::size_t{16};  // MD5
        case dataset::AppCategory::kDynamicUncompressed:
          return std::size_t{20};  // SHA-1
      }
      return std::size_t{0};
    }();
    for (const auto& entry : recipe->entries) {
      ASSERT_EQ(entry.digest.size(), expected_width) << file.path;
    }
  }
}

TEST(AaDedupe, ContainersRespectCapacity) {
  cloud::CloudTarget target;
  AaDedupeOptions options;
  options.container_capacity = 256 * 1024;
  AaDedupeScheme scheme(target, options);
  dataset::DatasetGenerator gen(test_config(4ull << 20));
  scheme.backup(gen.initial());

  for (const auto& key : target.store().list("containers/")) {
    const auto object = target.store().get(key);
    ASSERT_TRUE(object.has_value());
    container::ContainerReader reader(std::move(*object));
    // Payload never exceeds capacity unless it is a single oversized chunk.
    std::uint64_t payload = 0;
    for (const auto& d : reader.descriptors()) payload += d.length;
    if (reader.descriptors().size() > 1) {
      EXPECT_LE(payload, options.container_capacity) << key;
    }
  }
}

}  // namespace
}  // namespace aadedupe::core
