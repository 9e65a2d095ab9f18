// End-to-end fault tolerance: every backup scheme must survive an
// unreliable WAN. With 5% transient failures on both paths and the default
// retry budget, a 3-session backup must complete with byte-exact restores
// — and for AA-Dedupe, a clean scrub. With retries disabled, failures must
// surface as typed errors, never as silent data loss or an abort.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "backup/chunk_level.hpp"
#include "backup/file_level.hpp"
#include "backup/full_backup.hpp"
#include "backup/incremental.hpp"
#include "backup/sam.hpp"
#include "backup/target_dedupe.hpp"
#include "core/aa_dedupe.hpp"
#include "dataset/generator.hpp"

namespace aadedupe {
namespace {

constexpr std::uint64_t kFaultSeed = 20110926;  // CLUSTER'11 week, why not

dataset::DatasetConfig small_config(std::uint64_t bytes = 3ull << 20) {
  dataset::DatasetConfig config;
  config.seed = 17;
  config.session_bytes = bytes;
  config.max_file_bytes = 1 << 20;
  return config;
}

std::unique_ptr<backup::BackupScheme> make_scheme(const std::string& name,
                                                  cloud::CloudTarget& target) {
  if (name == "full") return std::make_unique<backup::FullBackupScheme>(target);
  if (name == "incremental")
    return std::make_unique<backup::IncrementalScheme>(target);
  if (name == "file") return std::make_unique<backup::FileLevelScheme>(target);
  if (name == "chunk")
    return std::make_unique<backup::ChunkLevelScheme>(target);
  if (name == "sam") return std::make_unique<backup::SamScheme>(target);
  if (name == "target")
    return std::make_unique<backup::TargetDedupeScheme>(target);
  // One worker: streams then commit in a fixed order, so container ids
  // come out in a fixed order. With more workers the container-id →
  // content assignment varies with thread timing, so the (key, attempt)
  // pairs drawn against the fault schedule — and hence the injected-fault
  // count this test asserts on — would differ run to run. Fault
  // determinism under reordering is covered by test_fault_injection.
  core::AaDedupeOptions options;
  options.worker_threads = 1;
  return std::make_unique<core::AaDedupeScheme>(target, options);
}

class FaultySchemes : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultySchemes, ThreeSessionsSurviveFivePercentTransientFaults) {
  cloud::CloudTarget target;
  target.inject_faults(cloud::FaultProfile::transient(0.05), kFaultSeed);
  auto scheme = make_scheme(GetParam(), target);

  dataset::DatasetGenerator gen(small_config());
  const auto sessions = gen.sessions(3);
  for (const auto& snapshot : sessions) scheme->backup(snapshot);

  // The link really was hostile (faults fired, retries absorbed them).
  EXPECT_GT(target.injected_fault_total(), 0u);
  EXPECT_GT(target.retrier().retries(), 0u);
  EXPECT_EQ(target.retrier().exhausted(), 0u)
      << "5% transient should never outlast the default retry budget";

  // Every sampled file restores byte-exactly through the same faulty link.
  const dataset::Snapshot& last = sessions.back();
  for (std::size_t i = 0; i < last.files.size();
       i += (i + 5 < last.files.size() ? std::size_t{5} : std::size_t{1})) {
    const dataset::FileEntry& file = last.files[i];
    const ByteBuffer expected = dataset::materialize(file.content);
    const ByteBuffer restored = scheme->restore_file(file.path);
    ASSERT_EQ(restored, expected) << file.path;
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, FaultySchemes,
                         ::testing::Values("full", "incremental", "file",
                                           "chunk", "sam", "target", "aa"));

TEST(FaultTolerance, AaScrubStaysCleanUnderFaults) {
  cloud::CloudTarget target;
  target.inject_faults(cloud::FaultProfile::transient(0.05), kFaultSeed);
  core::AaDedupeScheme scheme(target);

  dataset::DatasetGenerator gen(small_config(2ull << 20));
  const auto sessions = gen.sessions(3);
  for (const auto& snapshot : sessions) scheme.backup(snapshot);

  EXPECT_TRUE(scheme.pending_uploads().empty());
  const auto report = scheme.scrub();
  EXPECT_TRUE(report.clean())
      << "missing=" << report.missing_containers
      << " corrupt=" << report.corrupt_chunks
      << " transport=" << report.transport_errors;
  EXPECT_GT(report.chunks_checked, 0u);
}

TEST(FaultTolerance, RetriesDisabledSurfaceTypedErrorNotSilentLoss) {
  // Schemes without a journal propagate the typed error out of backup().
  cloud::CloudTarget target;
  target.set_retry_policy(cloud::RetryPolicy::none());
  target.inject_faults(cloud::FaultProfile::transient(1.0), kFaultSeed);
  backup::FullBackupScheme scheme(target);

  dataset::DatasetGenerator gen(small_config(1ull << 20));
  try {
    scheme.backup(gen.initial());
    FAIL() << "backup over a dead link must not report success";
  } catch (const cloud::CloudTransportError& error) {
    EXPECT_EQ(error.error(), cloud::CloudError::kTransient);
    EXPECT_FALSE(error.key().empty());
  }
}

TEST(FaultTolerance, AaJournalsTerminalFailuresAndReplaysNextSession) {
  // Graceful degradation: with retries disabled and a badly lossy uplink,
  // AA-Dedupe finishes the session anyway, parking what would not ship.
  cloud::CloudTarget target;
  target.set_retry_policy(cloud::RetryPolicy::none());
  cloud::FaultProfile profile;
  profile.put_transient_p = 0.7;  // uplink only; downloads stay clean
  target.inject_faults(profile, kFaultSeed);

  core::AaDedupeScheme scheme(target);
  dataset::DatasetGenerator gen(small_config(2ull << 20));
  const auto sessions = gen.sessions(2);

  EXPECT_NO_THROW(scheme.backup(sessions[0]));
  EXPECT_FALSE(scheme.pending_uploads().empty())
      << "a 70% uplink loss with no retries must strand some uploads";

  // The journal survives a process restart with the rest of the state.
  const ByteBuffer state = scheme.export_state();
  core::AaDedupeScheme resumed(target);
  resumed.import_state(state);
  EXPECT_EQ(resumed.pending_uploads().size(), scheme.pending_uploads().size());

  // Link heals; the next session replays the journal before new work.
  target.clear_faults();
  target.set_retry_policy(cloud::RetryPolicy{});
  resumed.backup(sessions[1]);
  EXPECT_TRUE(resumed.pending_uploads().empty());

  // With the debt shipped, every retained session is whole again.
  const auto retained = resumed.restorable_sessions();
  ASSERT_EQ(retained.size(), 2u);
  for (const std::uint32_t session : retained) {
    EXPECT_TRUE(resumed.scrub(session).clean()) << "session " << session;
  }
  const dataset::Snapshot& last = sessions.back();
  for (std::size_t i = 0; i < last.files.size();
       i += (i + 9 < last.files.size() ? std::size_t{9} : std::size_t{1})) {
    const dataset::FileEntry& file = last.files[i];
    ASSERT_EQ(resumed.restore_file(file.path),
              dataset::materialize(file.content))
        << file.path;
  }
}

TEST(FaultTolerance, BackupWindowWidensOnUnreliableLink) {
  // The whole point of simulated backoff: an unreliable WAN shows up in
  // the paper's backup-window metric instead of in test wall time.
  const auto transfer_time = [](double fault_p) {
    cloud::CloudTarget target;
    if (fault_p > 0) {
      target.inject_faults(cloud::FaultProfile::transient(fault_p),
                           kFaultSeed);
    }
    backup::FullBackupScheme scheme(target);
    dataset::DatasetGenerator gen(small_config(2ull << 20));
    const auto report = scheme.backup(gen.initial());
    return report.transfer_seconds;
  };
  EXPECT_GT(transfer_time(0.10), transfer_time(0.0));
}

}  // namespace
}  // namespace aadedupe
