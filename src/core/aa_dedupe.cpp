#include "core/aa_dedupe.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "backup/keys.hpp"
#include "core/upload_pipeline.hpp"
#include "index/checkpoint.hpp"
#include "index/log_structured_index.hpp"
#include "index/memory_index.hpp"
#include "util/check.hpp"

namespace aadedupe::core {

namespace {
/// Partition key for the tiny-file stream (bypasses dedup entirely).
constexpr char kTinyStream[] = "tiny";

/// Shard backend selection (AaDedupeOptions::index_directory): RAM-resident
/// shards by default (the paper's single-PC design point), log-structured
/// on-disk shards when a directory is configured.
index::PartitionedIndex::ShardFactory make_shard_factory(
    const AaDedupeOptions& options) {
  if (options.index_directory.empty()) {
    return [](const std::string&) {
      return std::make_unique<index::MemoryChunkIndex>();
    };
  }
  return index::log_structured_shard_factory(options.index_directory);
}
}  // namespace

AaDedupeScheme::AaDedupeScheme(cloud::CloudTarget& target,
                               AaDedupeOptions options)
    : BackupScheme(target),
      options_(options),
      policy_(options.policy),
      size_filter_(options.tiny_file_threshold),
      index_(make_shard_factory(options_)),
      pool_(options_.worker_threads) {
  if (options_.convergent_encryption) {
    master_key_ = crypto::derive_master_key(options_.passphrase);
  }
  if (options_.telemetry != nullptr) {
    // One context observes the whole path: the transport decorators report
    // into the same registry/tracer the scheme uses.
    target.attach_telemetry(options_.telemetry);
    if (!options_.tenant.empty()) {
      tenant_labels_.emplace_back("tenant", options_.tenant);
    }
    set_telemetry_tenant(options_.tenant);
    files_counter_ =
        options_.telemetry->metrics.counter("session.files", tenant_labels_);
    logical_bytes_counter_ = options_.telemetry->metrics.counter(
        "session.bytes_logical", tenant_labels_);
    chunks_counter_ =
        options_.telemetry->metrics.counter("session.chunks", tenant_labels_);
    dup_chunks_counter_ = options_.telemetry->metrics.counter(
        "session.chunks_duplicate", tenant_labels_);
  }
}

telemetry::Sketch AaDedupeScheme::chunk_latency_sketch(
    const std::string& app) const {
  if (options_.telemetry == nullptr) return {};
  telemetry::MetricLabels labels = tenant_labels_;
  labels.emplace_back("app", app);
  labels.emplace_back("stage", "chunk");
  return options_.telemetry->metrics.sketch("chunk.latency_s", labels);
}

container::RecipeStore AaDedupeScheme::dedupe_streams(
    const std::map<std::string, std::vector<const dataset::FileEntry*>>&
        streams,
    UploadPipeline& pipeline) {
  // Per-stream commit state: its index shard, its open container (one per
  // stream, paper Section III.F), its recipes, and a scratch buffer for
  // convergent encryption. Streams commit concurrently with each other
  // (they share nothing, per Observation 2) but each stream's files commit
  // serially in snapshot order.
  struct StreamCommit {
    const std::string* key = nullptr;
    bool tiny = false;
    index::ChunkIndex* shard = nullptr;
    std::unique_ptr<container::ContainerManager> manager;
    std::vector<container::FileRecipe> recipes;
    ByteBuffer crypt_scratch;
    telemetry::Sketch chunk_sketch;  // per-file chunk+fingerprint latency
  };
  std::vector<StreamCommit> commits;
  commits.reserve(streams.size());

  // Flattened session work-list, stream-major so each stream's files stay
  // contiguous and ordered for the commit phase.
  struct WorkItem {
    std::size_t stream;
    const dataset::FileEntry* file;
  };
  std::vector<WorkItem> items;
  for (const auto& [key, files] : streams) {
    StreamCommit commit;
    commit.key = &key;
    commit.tiny = key == kTinyStream;
    commit.shard = commit.tiny ? nullptr : &index_.shard(key);
    if (!commit.tiny) commit.chunk_sketch = chunk_latency_sketch(key);
    commit.manager = std::make_unique<container::ContainerManager>(
        container_ids_,
        [&pipeline](std::uint64_t id, ByteBuffer bytes) {
          pipeline.enqueue(backup::keys::container_object(id),
                           std::move(bytes));
        },
        options_.container_capacity, /*pad_on_flush=*/false,
        options_.telemetry, key);
    commit.recipes.reserve(files.size());
    const std::size_t stream_index = commits.size();
    commits.push_back(std::move(commit));
    for (const dataset::FileEntry* file : files) {
      items.push_back(WorkItem{stream_index, file});
    }
  }

  // Secure dedup: encrypt a plaintext chunk under its content-derived key
  // and remember the key for restore. Returns the ciphertext view.
  const auto seal_chunk = [this](StreamCommit& commit,
                                 const hash::Digest& digest,
                                 ConstByteSpan plaintext) -> ConstByteSpan {
    if (!options_.convergent_encryption) return plaintext;
    const crypto::ChaChaKey key = crypto::derive_content_key(plaintext);
    commit.crypt_scratch.assign(plaintext.begin(), plaintext.end());
    crypto::convergent_encrypt(key, commit.crypt_scratch);
    {
      std::lock_guard lock(key_store_mutex_);
      key_store_.put(digest, key);
    }
    return commit.crypt_scratch;
  };

  // Per-file front-end output. Buffers persist across batches so content
  // materialization reuses allocations.
  struct FrontEndPlan {
    ByteBuffer content;
    FileChunkPlan plan;         // non-tiny files
    hash::Digest tiny_digest;   // tiny files
  };
  std::vector<FrontEndPlan> plans;

  telemetry::Tracer* tracer =
      options_.telemetry != nullptr ? &options_.telemetry->trace : nullptr;
  std::size_t batch_begin = 0;
  while (batch_begin < items.size()) {
    // Grow the batch until the byte budget is hit (always >= 1 file).
    std::size_t batch_end = batch_begin;
    std::uint64_t batch_bytes = 0;
    while (batch_end < items.size() &&
           (batch_end == batch_begin ||
            batch_bytes + items[batch_end].file->size() <=
                options_.front_end_batch_bytes)) {
      batch_bytes += items[batch_end].file->size();
      ++batch_end;
    }
    const std::size_t batch_size = batch_end - batch_begin;
    if (plans.size() < batch_size) plans.resize(batch_size);

    // Phase 1 — pure and stateless: chunk and fingerprint every file of
    // the batch across the pool, one file per steal so a dominant stream's
    // large files spread over all workers.
    pool_.parallel_for(
        batch_size,
        [&](std::size_t i) {
          const WorkItem& item = items[batch_begin + i];
          FrontEndPlan& plan = plans[i];
          dataset::materialize_into(item.file->content, plan.content);
          if (commits[item.stream].tiny) {
            // Tiny files skip dedup: a cheap Rabin-96 tag labels the
            // container descriptor, and the bytes are packed directly.
            plan.plan.chunks.clear();
            plan.plan.digests.clear();
            if (!plan.content.empty()) {
              plan.tiny_digest = hash::Rabin96::hash(plan.content);
            }
          } else if (tracer == nullptr) {
            plan.plan = chunk_and_fingerprint(
                policy_.for_kind(item.file->kind), plan.content,
                options_.telemetry, *commits[item.stream].key);
          } else {
            const double begin_s = tracer->now();
            plan.plan = chunk_and_fingerprint(
                policy_.for_kind(item.file->kind), plan.content,
                options_.telemetry, *commits[item.stream].key);
            commits[item.stream].chunk_sketch.observe(tracer->now() -
                                                      begin_s);
          }
        },
        /*grain=*/1);

    // Phase 2 — commit. Items are stream-major, so the batch decomposes
    // into contiguous per-stream spans; spans run concurrently, files
    // within a span serially in order.
    struct Span {
      std::size_t stream, begin, end;  // [begin, end) into items
    };
    std::vector<Span> spans;
    for (std::size_t i = batch_begin; i < batch_end; ++i) {
      if (spans.empty() || spans.back().stream != items[i].stream) {
        spans.push_back(Span{items[i].stream, i, i});
      }
      spans.back().end = i + 1;
    }
    pool_.parallel_for(spans.size(), [&](std::size_t s) {
      const Span& span = spans[s];
      StreamCommit& commit = commits[span.stream];
      // Batched-lookup scratch, reused across the span's files.
      std::vector<std::optional<index::ChunkLocation>> found;
      std::unordered_map<hash::Digest, index::ChunkLocation,
                         hash::Digest::Hasher>
          fresh;
      for (std::size_t i = span.begin; i < span.end; ++i) {
        FrontEndPlan& plan = plans[i - batch_begin];
        const dataset::FileEntry* file = items[i].file;
        container::FileRecipe recipe;
        recipe.path = file->path;
        recipe.file_size = plan.content.size();
        recipe.tag = commit.tiny ? std::string() : *commit.key;
        if (commit.tiny) {
          if (!plan.content.empty()) {
            const index::ChunkLocation loc = commit.manager->store(
                plan.tiny_digest,
                seal_chunk(commit, plan.tiny_digest, plan.content));
            recipe.entries.push_back(
                container::RecipeEntry{plan.tiny_digest, loc});
          }
          chunks_counter_.add(recipe.entries.size());
        } else {
          recipe.entries.reserve(plan.plan.chunks.size());
          double lookup_s = 0.0;
          std::uint64_t duplicates = 0;
          // One shard probe pass per file. Chunks the probe saw as absent
          // may still repeat within the file: the first commit records the
          // fresh location and later occurrences reuse it, so each distinct
          // chunk is stored and indexed once.
          if (tracer == nullptr) {
            commit.shard->lookup_batch(plan.plan.digests, found);
          } else {
            const double begin_s = tracer->now();
            commit.shard->lookup_batch(plan.plan.digests, found);
            lookup_s = tracer->now() - begin_s;
          }
          fresh.clear();
          for (std::size_t c = 0; c < plan.plan.chunks.size(); ++c) {
            const chunk::ChunkRef& ref = plan.plan.chunks[c];
            const hash::Digest& digest = plan.plan.digests[c];
            const ConstByteSpan chunk_bytes =
                ConstByteSpan{plan.content}.subspan(ref.offset, ref.length);
            index::ChunkLocation location;
            if (found[c]) {
              location = *found[c];
              ++duplicates;
            } else if (const auto it = fresh.find(digest);
                       it != fresh.end()) {
              location = it->second;
              ++duplicates;
            } else {
              location = commit.manager->store(
                  digest, seal_chunk(commit, digest, chunk_bytes));
              commit.shard->insert(digest, location);
              fresh.emplace(digest, location);
            }
            recipe.entries.push_back(
                container::RecipeEntry{digest, location});
          }
          if (tracer != nullptr && !plan.plan.chunks.empty()) {
            tracer->record(telemetry::Stage::kIndexLookup, *commit.key,
                           lookup_s, plan.plan.chunks.size());
          }
          chunks_counter_.add(recipe.entries.size());
          dup_chunks_counter_.add(duplicates);
        }
        files_counter_.increment();
        logical_bytes_counter_.add(plan.content.size());
        commit.recipes.push_back(std::move(recipe));
      }
    });

    // Timeline heartbeat once per batch: cheap (one atomic compare when
    // the interval has not elapsed) and frequent enough for short runs.
    if (options_.telemetry != nullptr) {
      options_.telemetry->timeline.maybe_sample(
          options_.telemetry->trace.now());
    }

    batch_begin = batch_end;
  }

  // Per-stream new-bytes rollup for the per-category dedup ratio.
  session_new_bytes_.clear();
  container::RecipeStore recipes;
  for (StreamCommit& commit : commits) {
    commit.manager->flush();
    session_new_bytes_[*commit.key] = commit.manager->bytes_stored();
    for (container::FileRecipe& recipe : commit.recipes) {
      recipes.put(std::move(recipe));
    }
  }
  return recipes;
}

void AaDedupeScheme::run_session(const dataset::Snapshot& snapshot) {
  latest_session_ = snapshot.session;
  telemetry::Tracer* tracer =
      options_.telemetry != nullptr ? &options_.telemetry->trace : nullptr;
  telemetry::Logger* log =
      options_.telemetry != nullptr ? &options_.telemetry->log : nullptr;
  telemetry::TraceSpan session_span(tracer, telemetry::Stage::kSession);
  AAD_LOG(log, kInfo, "session", "session %u: %zu files", snapshot.session,
          snapshot.files.size());

  // Graceful-degradation debt first: replay uploads a previous degraded
  // session parked in the journal. Whatever fails again stays parked.
  if (!journal_.empty()) {
    AAD_LOG(log, kInfo, "journal_replay",
            "replaying %zu parked upload(s) from a degraded session",
            journal_.size());
    telemetry::TraceSpan replay_span(tracer,
                                     telemetry::Stage::kJournalReplay);
    journal_.replay(target());
  }

  // Route files to application streams: tiny files to the packing stream,
  // everything else to its file-type stream (= index partition).
  std::map<std::string, std::vector<const dataset::FileEntry*>> streams;
  {
    telemetry::TraceSpan classify_span(tracer, telemetry::Stage::kClassify);
    for (const dataset::FileEntry& file : snapshot.files) {
      const std::string key = size_filter_.is_tiny(file.size())
                                  ? kTinyStream
                                  : DedupPolicy::partition_key(file.kind);
      streams[key].push_back(&file);
    }
  }

  UploadPipelineOptions pipeline_options;
  pipeline_options.journal = &journal_;
  pipeline_options.telemetry = options_.telemetry;
  pipeline_options.tenant = options_.tenant;
  UploadPipeline pipeline(target(), pipeline_options);
  container::RecipeStore recipes = dedupe_streams(streams, pipeline);

  // Periodic metadata synchronization: recipes plus the application-aware
  // index image, shipped through the same pipeline. Metadata objects get
  // the pipeline's stricter retry treatment — a lost recipe object makes
  // the whole session unrestorable from the cloud.
  {
    telemetry::TraceSpan sync_span(tracer, telemetry::Stage::kMetadataSync);
    pipeline.enqueue(
        backup::keys::session_meta(name(), snapshot.session, "recipes"),
        recipes.serialize(), ObjectKind::kMetadata);
    if (options_.sync_index) {
      // Incremental sync: the first session ships kReset + full per-shard
      // bases, later sessions ship only the delta since the previous
      // checkpoint. Recovery replays every retained session's object in
      // order (bootstrap_from_cloud).
      index::BufferCheckpointSink sink;
      index_.checkpoint(sink);
      pipeline.enqueue(
          backup::keys::session_meta(name(), snapshot.session, "index"),
          sink.take(), ObjectKind::kMetadata);
    }
    if (options_.convergent_encryption) {
      // The wrapped key store is itself ciphertext — safe to sync.
      pipeline.enqueue(
          backup::keys::session_meta(name(), snapshot.session, "keys"),
          key_store_.serialize(master_key_), ObjectKind::kMetadata);
    }
  }
  pipeline.finish();
  pipeline_enqueued_ = pipeline.enqueued();
  pipeline_uploaded_ = pipeline.uploaded();
  pipeline_requeues_ = pipeline.requeues();
  pipeline_journaled_ = pipeline.journaled();
  pipeline_failed_ = pipeline.failed();
  if (options_.telemetry != nullptr) {
    // Final timeline point: sessions shorter than the sample interval
    // still get a curve endpoint with the finished totals.
    options_.telemetry->timeline.force_sample(tracer->now());
    AAD_LOG(log, kInfo, "session",
            "session %u done: %llu uploaded, %llu journaled, %llu failed",
            snapshot.session,
            static_cast<unsigned long long>(pipeline_uploaded_),
            static_cast<unsigned long long>(pipeline_journaled_),
            static_cast<unsigned long long>(pipeline_failed_));
  }

  history_[snapshot.session] = recipes;
  recipes_ = std::move(recipes);
  reader_cache_.clear();  // cloud contents changed
}

GcReport AaDedupeScheme::collect_garbage(std::uint32_t keep_sessions,
                                         const GcOptions& options) {
  AAD_EXPECTS(keep_sessions >= 1);
  AAD_EXPECTS(options.rewrite_threshold >= 0.0 &&
              options.rewrite_threshold <= 1.0);
  GcReport report;
  if (history_.empty()) return report;

  // 1. Retention: keep the newest `keep_sessions` sessions; expired
  // sessions lose their cloud metadata objects.
  while (history_.size() > keep_sessions) {
    const std::uint32_t expired = history_.begin()->first;
    // Client-issued deletes go through the transport stack; a failed
    // delete leaves a harmless orphan object, so the result is advisory.
    (void)target().remove_object(
        backup::keys::session_meta(name(), expired, "recipes"));
    (void)target().remove_object(
        backup::keys::session_meta(name(), expired, "index"));
    (void)target().remove_object(
        backup::keys::session_meta(name(), expired, "keys"));
    history_.erase(history_.begin());
    ++report.sessions_expired;
  }
  report.sessions_retained = static_cast<std::uint32_t>(history_.size());

  // 2. Liveness: every (container, offset) a retained recipe references.
  struct LiveRef {
    hash::Digest digest;
    index::ChunkLocation location;
  };
  std::map<std::uint64_t, std::map<std::uint32_t, LiveRef>> live;
  for (const auto& [session, recipes] : history_) {
    for (const std::string& path : recipes.paths()) {
      const container::FileRecipe* recipe = recipes.find(path);
      for (const container::RecipeEntry& entry : recipe->entries) {
        live[entry.location.container_id].emplace(
            entry.location.offset, LiveRef{entry.digest, entry.location});
      }
    }
  }

  // 3. Sweep containers: delete dead ones, rewrite under-utilized ones.
  // `remap` records where relocated chunks now live, keyed by old
  // (container, offset).
  std::map<std::pair<std::uint64_t, std::uint32_t>, index::ChunkLocation>
      remap;
  container::ContainerManager rewriter(
      container_ids_,
      [this](std::uint64_t id, ByteBuffer bytes) {
        upload_or_throw(backup::keys::container_object(id), std::move(bytes));
      },
      options_.container_capacity);

  for (const std::string& key : target().store().list("containers/")) {
    ++report.containers_scanned;
    auto object = target().download(key);
    // Unreadable this round (kNotFound raced a concurrent delete, or the
    // link failed past retries): skip — never reclaim what we could not
    // inspect. The next GC pass will see it again.
    if (!object.ok()) continue;
    const std::uint64_t object_size = object.value().size();
    container::ContainerReader reader(std::move(object).value());

    const auto live_it = live.find(reader.id());
    if (live_it == live.end()) {
      (void)target().remove_object(key);
      ++report.containers_deleted;
      report.bytes_reclaimed += object_size;
      continue;
    }

    std::uint64_t live_bytes = 0, payload_bytes = 0;
    for (const container::ChunkDescriptor& d : reader.descriptors()) {
      payload_bytes += d.length;
      if (live_it->second.contains(d.offset)) live_bytes += d.length;
    }
    const double utilization =
        payload_bytes == 0
            ? 0.0
            : static_cast<double>(live_bytes) /
                  static_cast<double>(payload_bytes);
    if (utilization >= options.rewrite_threshold || live_bytes == 0) {
      continue;  // healthy container (fully-dead handled above)
    }

    // Rewrite: copy live chunks into fresh containers.
    for (const auto& [offset, ref] : live_it->second) {
      const ConstByteSpan chunk =
          reader.chunk_at(offset, ref.location.length);
      const index::ChunkLocation fresh = rewriter.store(ref.digest, chunk);
      remap[{reader.id(), offset}] = fresh;
      ++report.chunks_relocated;
      report.live_bytes_copied += chunk.size();
    }
    (void)target().remove_object(key);
    ++report.containers_rewritten;
    report.bytes_reclaimed += object_size;
  }
  rewriter.flush();

  // 4. Repoint retained recipes at the relocated chunks and rebuild the
  // application-aware index from them (dead fingerprints drop out, so no
  // future session can dedup against a reclaimed chunk). Only when this
  // pass actually reclaimed something: a no-op GC must leave the cloud
  // objects — and the incremental checkpoint chain — untouched, or a
  // keep-everything pass would replace the latest session's small index
  // delta with a full rebase and grow storage for nothing.
  const bool reclaimed = report.sessions_expired > 0 ||
                         report.containers_deleted > 0 ||
                         report.containers_rewritten > 0;
  if (!reclaimed) {
    recipes_ = history_.rbegin()->second;
    reader_cache_.clear();
    return report;
  }
  index_.clear();
  crypto::KeyStore live_keys;
  for (auto& [session, recipes] : history_) {
    container::RecipeStore updated;
    for (const std::string& path : recipes.paths()) {
      container::FileRecipe recipe = *recipes.find(path);
      for (container::RecipeEntry& entry : recipe.entries) {
        const auto it = remap.find(
            {entry.location.container_id, entry.location.offset});
        if (it != remap.end()) entry.location = it->second;
        if (options_.convergent_encryption) {
          std::lock_guard lock(key_store_mutex_);
          if (const auto key = key_store_.get(entry.digest)) {
            live_keys.put(entry.digest, *key);
          }
        }
      }
      if (!recipe.tag.empty()) {
        index::ChunkIndex& shard = index_.shard(recipe.tag);
        for (const container::RecipeEntry& entry : recipe.entries) {
          shard.insert(entry.digest, entry.location);
        }
      }
      updated.put(std::move(recipe));
    }
    upload_or_throw(backup::keys::session_meta(name(), session, "recipes"),
                    updated.serialize());
    recipes = std::move(updated);
  }
  if (options_.convergent_encryption) {
    // Content keys of reclaimed chunks are dropped with them.
    std::lock_guard lock(key_store_mutex_);
    key_store_ = std::move(live_keys);
    upload_or_throw(backup::keys::session_meta(
                        name(), history_.rbegin()->first, "keys"),
                    key_store_.serialize(master_key_));
  }
  if (options_.sync_index && !history_.empty()) {
    // clear() re-armed the checkpoint chain, so this ships kReset + fresh
    // bases: any replayed chain drops pre-GC fingerprints here.
    index::BufferCheckpointSink sink;
    index_.checkpoint(sink);
    upload_or_throw(backup::keys::session_meta(
                        name(), history_.rbegin()->first, "index"),
                    sink.take());
  }
  recipes_ = history_.rbegin()->second;
  reader_cache_.clear();
  return report;
}

namespace {
// v2 appends the pending-uploads journal (fault-tolerant transport).
constexpr char kStateMagic[8] = {'A', 'A', 'D', 'S', 'T', 'A', 'T', '2'};

void append_sized(ByteBuffer& out, const ByteBuffer& blob) {
  append_le64(out, blob.size());
  append(out, blob);
}

ConstByteSpan read_sized(ConstByteSpan image, std::size_t& pos) {
  if (pos + 8 > image.size()) throw FormatError("state: truncated length");
  const std::uint64_t len = load_le64(image.data() + pos);
  pos += 8;
  if (pos + len > image.size()) throw FormatError("state: truncated blob");
  const ConstByteSpan blob = image.subspan(pos, len);
  pos += len;
  return blob;
}
}  // namespace

ByteBuffer AaDedupeScheme::export_state() const {
  ByteBuffer out;
  append(out, ConstByteSpan{reinterpret_cast<const std::byte*>(kStateMagic),
                            8});
  append_le32(out, options_.convergent_encryption ? 1u : 0u);
  append_le32(out, latest_session_);
  append_le64(out, container_ids_.next_id());
  {
    // Self-contained snapshot (kReset + per-shard bases) in the
    // checkpoint framing; checkpoint_full leaves the incremental cloud
    // sync chain undisturbed. import_state tells this apart from
    // pre-checkpoint serialize() images by the AADCKPT1 magic.
    index::BufferCheckpointSink sink;
    index_.checkpoint_full(sink);
    append_sized(out, sink.take());
  }
  append_le32(out, static_cast<std::uint32_t>(history_.size()));
  for (const auto& [session, recipes] : history_) {
    append_le32(out, session);
    append_sized(out, recipes.serialize());
  }
  if (options_.convergent_encryption) {
    std::lock_guard lock(key_store_mutex_);
    append_sized(out, key_store_.serialize(master_key_));
  }
  // Degraded-session debt travels with the client state so a process
  // restart still replays it.
  append_sized(out, journal_.serialize());
  return out;
}

void AaDedupeScheme::import_state(ConstByteSpan image) {
  if (image.size() < 24 ||
      std::memcmp(image.data(), kStateMagic, 8) != 0) {
    throw FormatError("state: bad magic");
  }
  std::size_t pos = 8;
  const std::uint32_t encrypted = load_le32(image.data() + pos);
  pos += 4;
  if ((encrypted != 0) != options_.convergent_encryption) {
    throw FormatError("state: encryption mode mismatch with options");
  }
  const std::uint32_t latest = load_le32(image.data() + pos);
  pos += 4;
  const std::uint64_t next_container = load_le64(image.data() + pos);
  pos += 8;

  const ConstByteSpan index_blob = read_sized(image, pos);

  if (pos + 4 > image.size()) throw FormatError("state: truncated history");
  const std::uint32_t session_count = load_le32(image.data() + pos);
  pos += 4;
  std::map<std::uint32_t, container::RecipeStore> fresh_history;
  for (std::uint32_t i = 0; i < session_count; ++i) {
    if (pos + 4 > image.size()) throw FormatError("state: truncated session");
    const std::uint32_t session = load_le32(image.data() + pos);
    pos += 4;
    fresh_history.emplace(
        session, container::RecipeStore::deserialize(read_sized(image, pos)));
  }

  crypto::KeyStore fresh_keys;
  if (options_.convergent_encryption) {
    fresh_keys = crypto::KeyStore::deserialize(read_sized(image, pos),
                                               master_key_);
  }
  UploadJournal fresh_journal =
      UploadJournal::deserialize(read_sized(image, pos));
  if (pos != image.size()) throw FormatError("state: trailing bytes");
  if (fresh_history.empty() && session_count != 0) {
    throw FormatError("state: inconsistent history");
  }

  // Commit. Both index restore paths are internally all-or-nothing
  // (records are validated before any shard mutates), and everything
  // else above has already been validated.
  if (index::is_checkpoint_stream(index_blob)) {
    index::BufferCheckpointSource source(index_blob);
    index_.restore(source);
  } else {
    // Pre-checkpoint state image (AADSTAT2 with a serialize() blob).
    index_.deserialize(index_blob);
  }
  history_ = std::move(fresh_history);
  recipes_ = history_.empty() ? container::RecipeStore{}
                              : history_.rbegin()->second;
  latest_session_ = latest;
  container_ids_.reset(next_container);
  {
    std::lock_guard lock(key_store_mutex_);
    key_store_ = std::move(fresh_keys);
  }
  journal_ = std::move(fresh_journal);
  reader_cache_.clear();
}

std::vector<AaDedupeScheme::ApplicationStats>
AaDedupeScheme::application_stats() const {
  // Index-side counters per partition.
  std::map<std::string, ApplicationStats> rows;
  auto& index = const_cast<index::PartitionedIndex&>(index_);
  for (const std::string& partition : index_.partitions()) {
    ApplicationStats row;
    row.partition = partition;
    const index::ChunkIndex& shard = index.shard(partition);
    row.index_entries = shard.size();
    const index::IndexStats stats = shard.stats();
    row.index_lookups = stats.lookups;
    row.index_hits = stats.hits;
    row.index_probe_steps = stats.probe_steps;
    row.filter_probes = stats.filter_probes;
    row.filter_negatives = stats.filter_negatives;
    row.filter_false_positives = stats.filter_false_positives;
    row.cache_hits = stats.cache_hits;
    row.cache_evictions = stats.cache_evictions;
    rows.emplace(partition, std::move(row));
  }
  rows.emplace("tiny", ApplicationStats{"tiny", "-", "-", 0, 0, 0, 0, 0, 0});

  // Latest-session composition from the recipes.
  for (const std::string& path : recipes_.paths()) {
    const container::FileRecipe* recipe = recipes_.find(path);
    const std::string key = recipe->tag.empty() ? "tiny" : recipe->tag;
    ApplicationStats& row = rows[key];
    if (row.partition.empty()) row.partition = key;
    ++row.session_files;
    row.session_bytes += recipe->file_size;
    row.session_chunks += recipe->entries.size();
  }
  for (const auto& [key, new_bytes] : session_new_bytes_) {
    const auto it = rows.find(key);
    if (it != rows.end()) it->second.session_new_bytes = new_bytes;
  }

  // Fill in the policy columns for real partitions; "tiny" goes last.
  std::vector<ApplicationStats> out;
  out.reserve(rows.size());
  for (auto& [key, row] : rows) {
    if (key == "tiny") continue;
    for (const dataset::FileKind kind : dataset::all_file_kinds()) {
      if (key == dataset::extension(kind)) {
        const CategoryPolicy policy = policy_.for_kind(kind);
        row.chunker = std::string(policy.chunker->name());
        row.hash = std::string(hash::to_string(policy.hash_kind));
        break;
      }
    }
    out.push_back(std::move(row));
  }
  out.push_back(std::move(rows.at("tiny")));
  return out;
}

void AaDedupeScheme::fill_run_report(telemetry::RunReport& report) const {
  telemetry::JsonValue& session = report.section("session");
  session["scheme"] = name();
  session["latest_session"] = latest_session_;
  session["tiny_file_threshold"] = options_.tiny_file_threshold;
  session["worker_threads"] = options_.worker_threads;
  session["convergent_encryption"] = options_.convergent_encryption;

  std::uint64_t total_bytes = 0, total_files = 0, total_chunks = 0;
  std::uint64_t total_new_bytes = 0;
  telemetry::JsonValue& apps = session["applications"];
  apps.make_array();
  for (const ApplicationStats& row : application_stats()) {
    telemetry::JsonValue app;
    app.make_object();
    app["partition"] = row.partition;
    app["chunker"] = row.chunker;
    app["hash"] = row.hash;
    app["index_entries"] = row.index_entries;
    app["index_lookups"] = row.index_lookups;
    app["index_hits"] = row.index_hits;
    app["index_probe_steps"] = row.index_probe_steps;
    app["filter_probes"] = row.filter_probes;
    app["filter_negatives"] = row.filter_negatives;
    app["filter_false_positives"] = row.filter_false_positives;
    app["cache_hits"] = row.cache_hits;
    app["cache_evictions"] = row.cache_evictions;
    app["session_files"] = row.session_files;
    app["session_bytes"] = row.session_bytes;
    app["session_chunks"] = row.session_chunks;
    app["session_new_bytes"] = row.session_new_bytes;
    // Paper-style dedup ratio: logical bytes over shipped container
    // bytes. 0 when the stream shipped nothing (all-duplicate or empty).
    app["dedup_ratio"] =
        row.session_new_bytes == 0
            ? 0.0
            : static_cast<double>(row.session_bytes) /
                  static_cast<double>(row.session_new_bytes);
    apps.push_back(std::move(app));
    total_bytes += row.session_bytes;
    total_files += row.session_files;
    total_chunks += row.session_chunks;
    total_new_bytes += row.session_new_bytes;
  }
  session["session_files"] = total_files;
  session["session_bytes"] = total_bytes;
  session["session_chunks"] = total_chunks;
  session["session_new_bytes"] = total_new_bytes;

  telemetry::JsonValue& pipeline = session["pipeline"].make_object();
  pipeline["enqueued"] = pipeline_enqueued_;
  pipeline["uploaded"] = pipeline_uploaded_;
  pipeline["requeues"] = pipeline_requeues_;
  pipeline["journaled"] = pipeline_journaled_;
  pipeline["failed"] = pipeline_failed_;

  telemetry::JsonValue& journal = session["journal"].make_object();
  std::uint64_t pending_bytes = 0;
  for (const PendingUpload& pending : journal_.pending()) {
    pending_bytes += pending.item.payload.size();
  }
  journal["pending_items"] = journal_.size();
  journal["pending_bytes"] = pending_bytes;
}

AaDedupeScheme::ScrubReport AaDedupeScheme::scrub() {
  if (history_.empty()) return ScrubReport{};
  return scrub(history_.rbegin()->first);
}

AaDedupeScheme::ScrubReport AaDedupeScheme::scrub(std::uint32_t session) {
  const auto it = history_.find(session);
  if (it == history_.end()) {
    throw FormatError("aa-dedupe: session " + std::to_string(session) +
                      " is not retained");
  }
  const container::RecipeStore& recipes = it->second;

  ScrubReport report;
  std::map<std::uint64_t, std::shared_ptr<container::ContainerReader>>
      readers;
  auto note_damage = [&report](const std::string& path) {
    if (report.damaged_paths.size() < 100 &&
        (report.damaged_paths.empty() ||
         report.damaged_paths.back() != path)) {
      report.damaged_paths.push_back(path);
    }
  };

  ByteBuffer scratch;
  for (const std::string& path : recipes.paths()) {
    const container::FileRecipe* recipe = recipes.find(path);
    ++report.files_checked;
    for (const container::RecipeEntry& entry : recipe->entries) {
      ++report.chunks_checked;
      report.bytes_checked += entry.location.length;

      auto reader_it = readers.find(entry.location.container_id);
      if (reader_it == readers.end()) {
        auto object = target().download(
            backup::keys::container_object(entry.location.container_id));
        if (!object.ok()) {
          // Map the typed error to a verdict: a missing object is damage;
          // corruption caught by the transport checksum is damage; a link
          // failure past retries makes the scrub inconclusive here.
          if (object.error() == cloud::CloudError::kNotFound ||
              object.error() == cloud::CloudError::kCorrupt) {
            ++report.missing_containers;
          } else {
            ++report.transport_errors;
          }
          note_damage(path);
          readers.emplace(entry.location.container_id, nullptr);
          continue;
        }
        std::shared_ptr<container::ContainerReader> reader;
        try {
          reader = std::make_shared<container::ContainerReader>(
              std::move(object).value());
        } catch (const FormatError&) {
          // Unparseable container counts as missing.
          ++report.missing_containers;
          note_damage(path);
        }
        reader_it =
            readers.emplace(entry.location.container_id, std::move(reader))
                .first;
        if (reader_it->second == nullptr) continue;
      } else if (reader_it->second == nullptr) {
        note_damage(path);
        continue;
      }

      ConstByteSpan stored;
      try {
        stored = reader_it->second->chunk_at(entry.location.offset,
                                             entry.location.length);
      } catch (const FormatError&) {
        ++report.corrupt_chunks;
        note_damage(path);
        continue;
      }

      // Recover plaintext if encrypted, then recompute the fingerprint.
      ConstByteSpan plaintext = stored;
      if (options_.convergent_encryption) {
        std::optional<crypto::ChaChaKey> key;
        {
          std::lock_guard lock(key_store_mutex_);
          key = key_store_.get(entry.digest);
        }
        if (!key) {
          ++report.missing_keys;
          note_damage(path);
          continue;
        }
        scratch.assign(stored.begin(), stored.end());
        crypto::convergent_decrypt(*key, scratch);
        plaintext = scratch;
      }
      const hash::HashKind kind =
          entry.digest.size() == hash::Rabin96::kDigestSize
              ? hash::HashKind::kRabin96
          : entry.digest.size() == hash::Md5::kDigestSize
              ? hash::HashKind::kMd5
              : hash::HashKind::kSha1;
      if (hash::compute_digest(kind, plaintext) != entry.digest) {
        ++report.corrupt_chunks;
        note_damage(path);
      }
    }
  }
  return report;
}

std::uint32_t AaDedupeScheme::bootstrap_from_cloud() {
  // Session recipe objects live under "meta/<name>/s<N>/recipes".
  const std::string prefix = "meta/" + std::string(name()) + "/s";
  std::map<std::uint32_t, container::RecipeStore> recovered;
  for (const std::string& key : target().store().list(prefix)) {
    const std::size_t session_begin = prefix.size();
    const std::size_t slash = key.find('/', session_begin);
    if (slash == std::string::npos ||
        key.substr(slash + 1) != "recipes") {
      continue;
    }
    std::uint32_t session = 0;
    for (std::size_t i = session_begin; i < slash; ++i) {
      if (key[i] < '0' || key[i] > '9') {
        session = ~std::uint32_t{0};
        break;
      }
      session = session * 10 + static_cast<std::uint32_t>(key[i] - '0');
    }
    if (session == ~std::uint32_t{0}) continue;
    auto image = target().download(key);
    if (!image.ok()) {
      // kNotFound means a concurrent delete won the race — skip. A
      // transport failure must abort: silently recovering fewer sessions
      // than the cloud holds would look like data loss to the user.
      if (image.error() == cloud::CloudError::kNotFound) continue;
      throw cloud::CloudTransportError("download", key, image.error());
    }
    recovered.emplace(session,
                      container::RecipeStore::deserialize(image.value()));
  }
  if (recovered.empty()) return 0;
  const std::uint32_t latest = recovered.rbegin()->first;

  // Rebuild dedup state from the synced index objects. Sessions ship
  // incremental checkpoints (the first — and any post-GC rebase — carries
  // kReset + full bases), so the chain is replayed across ALL recovered
  // sessions in ascending order. Legacy serialize() images are
  // self-contained and simply replace whatever the chain built so far.
  // Without the latest session's object the replayed tail would be
  // missing, so in that case fall back to a full rebuild from recipes.
  index_.clear();
  bool index_loaded = false;
  for (const auto& [session, recipes] : recovered) {
    const std::string key =
        backup::keys::session_meta(name(), session, "index");
    auto image = target().download(key);
    if (!image.ok()) {
      if (image.error() == cloud::CloudError::kNotFound) {
        // Gap in the chain (sync_index off, or a lost object). Dedup
        // state is advisory — a sparser index only costs re-uploads —
        // but a missing final link means the freshest fingerprints are
        // gone, so the recipe rebuild below takes over.
        if (session == latest) index_loaded = false;
        continue;
      }
      // The object exists but could not be fetched; proceeding would
      // silently discard synced dedup state.
      throw cloud::CloudTransportError("download", key, image.error());
    }
    if (index::is_checkpoint_stream(image.value())) {
      index::BufferCheckpointSource source(image.value());
      index_.restore(source);
    } else {
      index_.deserialize(image.value());
    }
    index_loaded = true;
  }
  if (!index_loaded) {
    index_.clear();  // drop whatever a partial chain replay built
    for (const auto& [session, recipes] : recovered) {
      for (const std::string& path : recipes.paths()) {
        const container::FileRecipe* recipe = recipes.find(path);
        if (recipe->tag.empty()) continue;
        index::ChunkIndex& shard = index_.shard(recipe->tag);
        for (const auto& entry : recipe->entries) {
          shard.insert(entry.digest, entry.location);
        }
      }
    }
  }

  if (options_.convergent_encryption) {
    const std::string key =
        backup::keys::session_meta(name(), latest, "keys");
    auto image = target().download(key);
    if (!image.ok()) {
      if (image.error() == cloud::CloudError::kNotFound) {
        throw FormatError(
            "aa-dedupe: cloud holds no key store; encrypted chunks would "
            "be unrestorable");
      }
      throw cloud::CloudTransportError("download", key, image.error());
    }
    std::lock_guard lock(key_store_mutex_);
    key_store_ = crypto::KeyStore::deserialize(image.value(), master_key_);
  }

  // Container ids resume beyond everything present in the cloud.
  std::uint64_t max_container = 0;
  for (const std::string& key : target().store().list("containers/c")) {
    const std::uint64_t id = std::strtoull(key.c_str() + 12, nullptr, 10);
    max_container = std::max(max_container, id);
  }
  container_ids_.reset(max_container + 1);

  history_ = std::move(recovered);
  recipes_ = history_.rbegin()->second;
  latest_session_ = latest;
  journal_.clear();  // disaster recovery starts with no local debt
  reader_cache_.clear();
  return static_cast<std::uint32_t>(history_.size());
}

ByteBuffer AaDedupeScheme::restore_file(const std::string& path) {
  const container::FileRecipe* recipe = recipes_.find(path);
  if (recipe == nullptr) throw FormatError("aa-dedupe: unknown path " + path);
  return restore_recipe(*recipe);
}

ByteBuffer AaDedupeScheme::restore_file_at(const std::string& path,
                                           std::uint32_t session) {
  const auto it = history_.find(session);
  if (it == history_.end()) {
    throw FormatError("aa-dedupe: session " + std::to_string(session) +
                      " is not restorable (never backed up or expired)");
  }
  const container::FileRecipe* recipe = it->second.find(path);
  if (recipe == nullptr) {
    throw FormatError("aa-dedupe: path " + path + " not in session " +
                      std::to_string(session));
  }
  return restore_recipe(*recipe);
}

std::vector<std::uint32_t> AaDedupeScheme::restorable_sessions() const {
  std::vector<std::uint32_t> out;
  out.reserve(history_.size());
  for (const auto& [session, recipes] : history_) out.push_back(session);
  return out;
}

ByteBuffer AaDedupeScheme::restore_recipe(
    const container::FileRecipe& recipe_ref) {
  const container::FileRecipe* recipe = &recipe_ref;
  ByteBuffer out;
  out.reserve(recipe->file_size);
  for (const container::RecipeEntry& entry : recipe->entries) {
    auto it = reader_cache_.find(entry.location.container_id);
    if (it == reader_cache_.end()) {
      const std::string key =
          backup::keys::container_object(entry.location.container_id);
      auto object = target().download(key);
      if (!object.ok()) {
        // kNotFound is permanent damage; everything else means the link
        // failed past the retry budget — the restore can be re-run.
        if (object.error() == cloud::CloudError::kNotFound) {
          throw FormatError("aa-dedupe: missing container " +
                            std::to_string(entry.location.container_id));
        }
        throw cloud::CloudTransportError("download", key, object.error());
      }
      it = reader_cache_
               .emplace(entry.location.container_id,
                        std::make_shared<container::ContainerReader>(
                            std::move(object).value()))
               .first;
    }
    const ConstByteSpan stored =
        it->second->chunk_at(entry.location.offset, entry.location.length);
    if (options_.convergent_encryption) {
      std::optional<crypto::ChaChaKey> key;
      {
        std::lock_guard lock(key_store_mutex_);
        key = key_store_.get(entry.digest);
      }
      if (!key) {
        throw FormatError("aa-dedupe: missing content key for chunk " +
                          entry.digest.hex());
      }
      const std::size_t base = out.size();
      out.insert(out.end(), stored.begin(), stored.end());
      crypto::convergent_decrypt(
          *key, ByteSpan{out.data() + base, stored.size()});
    } else {
      append(out, stored);
    }
  }
  if (out.size() != recipe->file_size) {
    throw FormatError("aa-dedupe: reassembled size mismatch for " +
                      recipe->path);
  }
  return out;
}

}  // namespace aadedupe::core
