// AA-Dedupe: the paper's application-aware source deduplication scheme.
//
// Session flow (paper Fig. 5):
//   1. The file size filter diverts tiny files (< 10 KB) around
//      deduplication; they are packed straight into containers.
//   2. The intelligent chunker splits each remaining file with the engine
//      chosen by its application category (WFC / SC / CDC).
//   3. The deduplicator fingerprints chunks with the category's hash
//      (Rabin-96 / MD5 / SHA-1) and probes the application-aware index —
//      one small independent index per file type.
//   4. New chunks are appended to the per-application open container;
//      sealed (1 MB) containers are shipped through the pipelined uploader
//      while deduplication continues.
//   5. At session end, open containers are flushed (padded), file recipes
//      and an incremental checkpoint of the application-aware index are
//      synced to the cloud (Section III.E's periodical data
//      synchronization). Only the first session ships a full index base;
//      later sessions ship the delta since the previous checkpoint.
//
// Because applications share no data (Observation 2), the per-application
// streams deduplicate independently, each against its own index shard and
// open container. A session runs in two phases on a thread pool: files are
// chunked and fingerprinted across all workers, then each stream commits
// its files in snapshot order, concurrently with the other streams.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backup/scheme.hpp"
#include "cloud/cloud_target.hpp"
#include "container/container.hpp"
#include "container/container_manager.hpp"
#include "container/recipe.hpp"
#include "core/policy.hpp"
#include "core/upload_journal.hpp"
#include "core/upload_pipeline.hpp"
#include "crypto/convergent.hpp"
#include "dataset/snapshot.hpp"
#include "index/partitioned_index.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace aadedupe::core {

struct AaDedupeOptions {
  std::uint64_t tiny_file_threshold = FileSizeFilter::kDefaultThreshold;
  std::size_t container_capacity = container::kDefaultCapacity;
  /// Upper bound on the bytes the front end materializes at once (it
  /// processes the session in batches of at most this size, so memory
  /// stays bounded on arbitrarily large snapshots). Every worker count,
  /// one included, buffers up to this much.
  std::uint64_t front_end_batch_bytes = 128ull << 20;
  /// Session thread-pool size (>= 1). Results do not depend on it; one
  /// worker is the serial configuration and also fixes the order in which
  /// containers are allocated ids.
  std::size_t worker_threads = ThreadPool::default_thread_count();
  /// Sync the application-aware index image to the cloud each session.
  bool sync_index = true;
  /// Chunking-policy tunables (paper's setup with FastCDC promoted to the
  /// dynamic-category default; see PolicyConfig).
  PolicyConfig policy;
  /// When non-empty, every per-application index shard is a disk-backed
  /// log-structured index (bloom filter + bounded entry cache + WAL) rooted
  /// under this directory — one subdirectory per partition key. Empty (the
  /// default) keeps the paper's RAM-resident shards. The on-disk layout
  /// survives the scheme, so a later scheme pointed at the same directory
  /// resumes with the fingerprint index already warm.
  std::string index_directory;
  /// Secure deduplication (the paper's future-work extension): encrypt
  /// every chunk with convergent encryption before it enters a container.
  /// Identical plaintext still deduplicates; the cloud never sees
  /// plaintext; restore requires the passphrase. The (wrapped) key store
  /// is synced to the cloud alongside the other session metadata.
  bool convergent_encryption = false;
  std::string passphrase;
  /// Nullable observability context. When set, the scheme attaches it to
  /// the target's transport stack and instruments every pipeline stage
  /// (classify, chunk, fingerprint, index lookup, container pack, upload,
  /// metadata sync) plus session counters. The nullptr default is the
  /// null sink: instrumented code pays one pointer test.
  telemetry::Telemetry* telemetry = nullptr;
  /// Tenant identity for fleet observability. When non-empty, session
  /// counters, the chunk-latency sketch, the upload-pipeline instruments,
  /// and the BWS/DR/DE session sketches all carry a `tenant` label, so N
  /// concurrent sessions reporting into one shared registry aggregate per
  /// tenant instead of blending (see bench/bench_fleet_obs).
  std::string tenant;
};

/// Options for the background garbage-collection process (the deletion
/// support the paper defers to future work in Section III.F).
struct GcOptions {
  /// Containers whose live-payload fraction falls below this are
  /// rewritten (live chunks copied into fresh containers); containers
  /// with no live chunks are deleted outright.
  double rewrite_threshold = 0.5;
};

struct GcReport {
  std::uint32_t sessions_retained = 0;
  std::uint32_t sessions_expired = 0;
  std::uint64_t containers_scanned = 0;
  std::uint64_t containers_deleted = 0;
  std::uint64_t containers_rewritten = 0;
  std::uint64_t chunks_relocated = 0;
  std::uint64_t live_bytes_copied = 0;
  std::uint64_t bytes_reclaimed = 0;  // cloud occupancy freed
};

class AaDedupeScheme final : public backup::BackupScheme {
 public:
  explicit AaDedupeScheme(cloud::CloudTarget& target,
                          AaDedupeOptions options = {});

  std::string_view name() const noexcept override { return "AA-Dedupe"; }

  ByteBuffer restore_file(const std::string& path) override;

  /// Point-in-time restore: reassemble the file as it was at a specific
  /// retained backup session. Throws FormatError for unknown sessions or
  /// paths (including sessions expired by collect_garbage).
  ByteBuffer restore_file_at(const std::string& path, std::uint32_t session);

  /// Sessions currently restorable (ascending).
  std::vector<std::uint32_t> restorable_sessions() const;

  /// Background deletion/retention process: keep only the most recent
  /// `keep_sessions` backup sessions, drop expired session metadata from
  /// the cloud, delete containers no retained file references, rewrite
  /// under-utilized containers (copying live chunks into fresh ones), and
  /// rebuild the application-aware index from the retained recipes so
  /// future sessions never dedup against reclaimed chunks. Restores of
  /// retained sessions remain byte-exact afterwards.
  GcReport collect_garbage(std::uint32_t keep_sessions,
                           const GcOptions& options = {});

  const index::PartitionedIndex& aa_index() const noexcept { return index_; }
  const AaDedupeOptions& options() const noexcept { return options_; }

  /// Per-application view of the deduplication state — the numbers the
  /// application-aware design is about: each partition's engine/hash
  /// policy, index size, lookup/hit counters, and the logical bytes and
  /// chunk counts of the latest session.
  struct ApplicationStats {
    std::string partition;           // file-type tag ("doc", "mp3", ...)
    std::string chunker;             // "wfc" / "sc" / "cdc" / "-" (tiny)
    std::string hash;                // "rabin96" / "md5" / "sha1" / "-"
    std::uint64_t index_entries = 0;
    std::uint64_t index_lookups = 0;
    std::uint64_t index_hits = 0;
    std::uint64_t index_probe_steps = 0;  // slots examined across lookups
    std::uint64_t session_files = 0;   // latest session
    std::uint64_t session_bytes = 0;   // latest session, logical
    std::uint64_t session_chunks = 0;  // latest session recipe entries
    /// Container bytes this stream shipped in the latest session (new
    /// chunks + container framing); with session_bytes this yields the
    /// per-category dedup ratio.
    std::uint64_t session_new_bytes = 0;
    // Filter/cache counters of disk-backed shards (zero for RAM-resident
    // ones) — how many lookups the bloom filter absorbed without a disk
    // read, how often it lied, and how the hot-set entry cache behaves.
    std::uint64_t filter_probes = 0;
    std::uint64_t filter_negatives = 0;
    std::uint64_t filter_false_positives = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_evictions = 0;
  };

  /// Stats for every partition seen so far (sorted), plus a final "tiny"
  /// row for the filtered stream.
  std::vector<ApplicationStats> application_stats() const;

  /// Contribute the "session" section of a run report: the per-application
  /// breakdown (with dedup ratios), pipeline counters, and journal debt.
  void fill_run_report(telemetry::RunReport& report) const;

  /// Client-side recipes of the latest session (exposed for tests).
  const container::RecipeStore& recipes() const noexcept { return recipes_; }

  /// Uploads the transport stack gave up on, parked for replay. A session
  /// that ends with a non-empty journal is *degraded*: its data is safe
  /// locally and ships at the start of the next session (run_session
  /// replays the journal before new work). The journal is included in
  /// export_state() so the debt survives process restarts.
  const UploadJournal& pending_uploads() const noexcept { return journal_; }
  UploadJournal& pending_uploads() noexcept { return journal_; }

  /// Serialize the full client state — application-aware index, session
  /// recipe history, container-id counter, and (when encryption is on)
  /// the wrapped key store — so a client can stop and resume across
  /// process lifetimes against the same cloud. The image contains no
  /// unwrapped key material.
  ByteBuffer export_state() const;

  /// Restore client state from export_state(). The scheme must have been
  /// constructed with compatible options (same passphrase when encryption
  /// is on). Throws FormatError on malformed input.
  void import_state(ConstByteSpan image);

  /// Integrity scrub result (see scrub()).
  struct ScrubReport {
    std::uint64_t files_checked = 0;
    std::uint64_t chunks_checked = 0;
    std::uint64_t bytes_checked = 0;
    std::uint64_t missing_containers = 0;
    std::uint64_t corrupt_chunks = 0;  // stored bytes no longer match digest
    std::uint64_t missing_keys = 0;    // encrypted chunk without content key
    /// Container fetches that failed with a retryable transport error
    /// even after retries — the scrub is inconclusive for those paths
    /// (the data may be fine; the link was not).
    std::uint64_t transport_errors = 0;
    /// Paths with at least one problem (capped at 100 entries).
    std::vector<std::string> damaged_paths;

    bool clean() const noexcept {
      return missing_containers == 0 && corrupt_chunks == 0 &&
             missing_keys == 0 && transport_errors == 0;
    }
  };

  /// Verify a retained session end-to-end against the cloud: fetch every
  /// referenced container and recompute every chunk fingerprint (the
  /// digest width identifies the hash family: 12 B Rabin-96, 16 B MD5,
  /// 20 B SHA-1). Detects silent cloud corruption, truncated or missing
  /// objects, and lost content keys before a restore would need them.
  ScrubReport scrub(std::uint32_t session);

  /// Scrub the latest session.
  ScrubReport scrub();

  /// Disaster recovery without any local state: rebuild the client from
  /// the metadata this scheme syncs to the cloud every session (recipes,
  /// the application-aware index image, and — with encryption — the
  /// wrapped key store). After bootstrapping, all synced sessions are
  /// restorable and the next backup deduplicates against them. Returns
  /// the number of sessions recovered (0 if the cloud holds no backups).
  std::uint32_t bootstrap_from_cloud();

 protected:
  void run_session(const dataset::Snapshot& snapshot) override;

 private:
  /// The session engine. In batches of at most front_end_batch_bytes,
  /// phase one chunks and fingerprints files across the pool; phase two
  /// commits each stream serially in file order, probing its shard once
  /// per file via lookup_batch. Records each stream's shipped container
  /// bytes in session_new_bytes_ and returns the session's recipes.
  container::RecipeStore dedupe_streams(
      const std::map<std::string,
                     std::vector<const dataset::FileEntry*>>& streams,
      class UploadPipeline& pipeline);

  ByteBuffer restore_recipe(const container::FileRecipe& recipe);

  AaDedupeOptions options_;
  DedupPolicy policy_;
  FileSizeFilter size_filter_;
  index::PartitionedIndex index_;
  container::ContainerIdAllocator container_ids_;
  ThreadPool pool_;
  /// Secure-dedup state (only used when convergent_encryption is on).
  crypto::ChaChaKey master_key_{};
  crypto::KeyStore key_store_;
  mutable std::mutex key_store_mutex_;

  /// Terminal upload failures awaiting replay (graceful degradation).
  UploadJournal journal_;

  /// Session-scoped telemetry rollups (latest session). The pipeline
  /// counters are captured from the UploadPipeline accessors before the
  /// pipeline is destroyed; the run report's session.pipeline section is
  /// the external view.
  std::map<std::string, std::uint64_t> session_new_bytes_;
  std::uint64_t pipeline_enqueued_ = 0;
  std::uint64_t pipeline_uploaded_ = 0;
  std::uint64_t pipeline_requeues_ = 0;
  std::uint64_t pipeline_journaled_ = 0;
  std::uint64_t pipeline_failed_ = 0;
  telemetry::Counter files_counter_;
  telemetry::Counter logical_bytes_counter_;
  telemetry::Counter chunks_counter_;
  telemetry::Counter dup_chunks_counter_;
  /// Label set shared by every instrument this scheme registers
  /// ({tenant=...} when options_.tenant is set, empty otherwise).
  telemetry::MetricLabels tenant_labels_;
  /// Per-file chunk+fingerprint latency sketch for `app` (registered
  /// lazily per application stream; labeled {app, stage, tenant?}).
  telemetry::Sketch chunk_latency_sketch(const std::string& app) const;

  container::RecipeStore recipes_;  // latest session (= history_.rbegin())
  /// Per-session recipe history; the retention unit of collect_garbage.
  std::map<std::uint32_t, container::RecipeStore> history_;
  std::uint32_t latest_session_ = 0;
  /// Restore-time cache of fetched container readers.
  std::map<std::uint64_t, std::shared_ptr<container::ContainerReader>>
      reader_cache_;
};

}  // namespace aadedupe::core
