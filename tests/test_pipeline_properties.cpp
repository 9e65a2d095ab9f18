// Whole-pipeline property tests, parameterized over dataset seeds: the
// invariants that must hold for ANY workload, not just the default one.
#include <gtest/gtest.h>

#include <numeric>

#include "backup/chunk_level.hpp"
#include "backup/file_level.hpp"
#include "backup/keys.hpp"
#include "core/aa_dedupe.hpp"
#include "dataset/generator.hpp"

namespace aadedupe {
namespace {

dataset::DatasetConfig seeded_config(std::uint64_t seed) {
  dataset::DatasetConfig config;
  config.seed = seed;
  config.session_bytes = 4ull << 20;
  config.max_file_bytes = 1 << 20;
  return config;
}

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, AaBackupRestoreIdentityAcrossSeeds) {
  cloud::CloudTarget target;
  core::AaDedupeScheme scheme(target);
  dataset::DatasetGenerator gen(seeded_config(GetParam()));
  const auto sessions = gen.sessions(2);
  for (const auto& s : sessions) scheme.backup(s);

  const dataset::Snapshot& last = sessions.back();
  for (std::size_t i = 0; i < last.files.size();
       i += (i + 17 < last.files.size() ? std::size_t{17} : std::size_t{1})) {
    const auto& file = last.files[i];
    ASSERT_EQ(scheme.restore_file(file.path),
              dataset::materialize(file.content))
        << "seed=" << GetParam() << " " << file.path;
  }
}

TEST_P(PipelineProperty, RecipesCoverSnapshotExactly) {
  cloud::CloudTarget target;
  core::AaDedupeScheme scheme(target);
  dataset::DatasetGenerator gen(seeded_config(GetParam()));
  const auto snapshot = gen.initial();
  scheme.backup(snapshot);

  // Conservation: every file has a recipe whose entries sum to its size.
  EXPECT_EQ(scheme.recipes().size(), snapshot.files.size());
  std::uint64_t recipe_bytes = 0;
  for (const auto& file : snapshot.files) {
    const auto* recipe = scheme.recipes().find(file.path);
    ASSERT_NE(recipe, nullptr) << file.path;
    EXPECT_EQ(recipe->file_size, file.size());
    std::uint64_t entry_sum = 0;
    for (const auto& e : recipe->entries) entry_sum += e.location.length;
    EXPECT_EQ(entry_sum, recipe->file_size) << file.path;
    recipe_bytes += recipe->file_size;
  }
  EXPECT_EQ(recipe_bytes, snapshot.total_bytes());
}

TEST_P(PipelineProperty, ContainersHoldExactlyTheUniquePayload) {
  cloud::CloudTarget target;
  core::AaDedupeScheme scheme(target);
  dataset::DatasetGenerator gen(seeded_config(GetParam()));
  scheme.backup(gen.initial());

  // Sum of container payloads == sum of distinct (container,offset)
  // chunk lengths referenced by recipes.
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::uint32_t> refs;
  for (const auto& path : scheme.recipes().paths()) {
    for (const auto& e : scheme.recipes().find(path)->entries) {
      refs[{e.location.container_id, e.location.offset}] = e.location.length;
    }
  }
  std::uint64_t referenced = 0;
  for (const auto& [key, len] : refs) referenced += len;

  std::uint64_t stored = 0;
  for (const auto& key : target.store().list("containers/")) {
    auto object = target.store().get(key);
    container::ContainerReader reader(std::move(*object));
    for (const auto& d : reader.descriptors()) stored += d.length;
  }
  EXPECT_EQ(stored, referenced) << "seed=" << GetParam();
}

TEST_P(PipelineProperty, DedupRatioNeverBelowOne) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    cloud::CloudTarget target;
    core::AaDedupeOptions options;
    options.worker_threads = workers;
    core::AaDedupeScheme scheme(target, options);
    dataset::DatasetGenerator gen(seeded_config(GetParam()));
    const auto sessions = gen.sessions(2);
    for (const auto& s : sessions) {
      const auto report = scheme.backup(s);
      EXPECT_GE(report.dedupe_ratio(), 1.0)
          << "seed=" << GetParam() << " workers=" << workers;
    }
  }
}

TEST_P(PipelineProperty, SchemesAgreeOnRestoredContent) {
  // Independent schemes restoring the same workload must agree with each
  // other (they all round-trip through completely different cloud layouts).
  dataset::DatasetGenerator gen_a(seeded_config(GetParam()));
  dataset::DatasetGenerator gen_b(seeded_config(GetParam()));

  cloud::CloudTarget ta, tb;
  backup::FileLevelScheme file_scheme(ta);
  backup::ChunkLevelScheme chunk_scheme(tb);
  const auto snap_a = gen_a.initial();
  const auto snap_b = gen_b.initial();
  file_scheme.backup(snap_a);
  chunk_scheme.backup(snap_b);

  for (std::size_t i = 0; i < snap_a.files.size();
       i += (i + 23 < snap_a.files.size() ? std::size_t{23} : std::size_t{1})) {
    EXPECT_EQ(file_scheme.restore_file(snap_a.files[i].path),
              chunk_scheme.restore_file(snap_b.files[i].path))
        << snap_a.files[i].path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace aadedupe
