#include "layer_walk.hpp"

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "backup/keys.hpp"
#include "container/container.hpp"
#include "core/upload_pipeline.hpp"
#include "hash/rabin.hpp"
#include "index/checkpoint.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace aadedupe::bench_session {

namespace {
// Same partition key and scheme name the engine uses, so object keys and
// recipe tags (and therefore shipped metadata bytes) match it exactly.
constexpr char kTinyStream[] = "tiny";
constexpr char kSchemeName[] = "AA-Dedupe";
}  // namespace

SessionTotals LayerWalk::backup(const dataset::Snapshot& snapshot,
                                bool record) {
  // Unrecorded sessions only build client state; their times are dropped.
  Layers unrecorded;
  Layers& l = record ? layers_ : unrecorded;
  const cloud::StoreStats before = target_.store().stats();
  target_.reset_transfer_clock();
  const StopWatch wall;

  // Classify: file size filter, then one stream per file type.
  std::map<std::string, std::vector<const dataset::FileEntry*>> streams;
  {
    const StopWatch t;
    for (const dataset::FileEntry& file : snapshot.files) {
      const std::string key = file.size() < options_.tiny_file_threshold
                                  ? kTinyStream
                                  : core::DedupPolicy::partition_key(file.kind);
      streams[key].push_back(&file);
    }
    l.classify_s += t.seconds();
  }

  // The uploader thread times each transport call; it is joined by
  // finish() before upload_s is read.
  double upload_s = 0.0;
  core::UploadPipelineOptions pipeline_options;
  pipeline_options.journal = &journal_;
  core::UploadPipeline pipeline(
      [this, &upload_s](const core::UploadItem& item) {
        const StopWatch t;
        const cloud::CloudStatus status = target_.upload(item.key, item.payload);
        upload_s += t.seconds();
        return status;
      },
      pipeline_options);

  // Enqueue time spent inside a timed store()/flush() call; subtracted so
  // container self time excludes upload backpressure.
  double nested_enqueue_s = 0.0;
  const auto enqueue = [&](std::string key, ByteBuffer bytes,
                           core::ObjectKind kind) {
    const StopWatch t;
    pipeline.enqueue(std::move(key), std::move(bytes), kind);
    const double s = t.seconds();
    l.enqueue_wait_s += s;
    nested_enqueue_s += s;
  };
  // Times one container call, net of any sealed-container enqueue.
  const auto timed_container = [&](double& self_s, const auto& call) {
    nested_enqueue_s = 0.0;
    const StopWatch t;
    call();
    self_s += t.seconds() - nested_enqueue_s;
  };

  // Per-stream commit state, created up front as the engine does: the
  // stream's index shard and its open container.
  struct Stream {
    const std::string* key = nullptr;
    bool tiny = false;
    index::ChunkIndex* shard = nullptr;
    std::unique_ptr<container::ContainerManager> manager;
  };
  std::vector<Stream> commits;
  // Stream-major work list, so each stream's files stay in snapshot order.
  struct Item {
    std::size_t stream;
    const dataset::FileEntry* file;
  };
  std::vector<Item> items;
  for (const auto& [key, files] : streams) {
    Stream stream;
    stream.key = &key;
    stream.tiny = key == kTinyStream;
    stream.shard = stream.tiny ? nullptr : &index_.shard(key);
    stream.manager = std::make_unique<container::ContainerManager>(
        container_ids_,
        [&](std::uint64_t id, ByteBuffer bytes) {
          ++l.sealed;
          enqueue(backup::keys::container_object(id), std::move(bytes),
                  core::ObjectKind::kContainer);
        },
        options_.container_capacity);
    for (const dataset::FileEntry* file : files) {
      items.push_back(Item{commits.size(), file});
    }
    commits.push_back(std::move(stream));
  }

  // The engine's two-phase front end, run serially: each batch of at most
  // front_end_batch_bytes is first read, chunked and fingerprinted file by
  // file, then committed in work-list order.
  struct FrontEnd {
    ByteBuffer content;
    core::FileChunkPlan plan;
    hash::Digest tiny_digest;
  };
  std::vector<FrontEnd> plans;
  container::RecipeStore recipes;
  std::vector<std::optional<index::ChunkLocation>> found;
  std::unordered_map<hash::Digest, index::ChunkLocation, hash::Digest::Hasher>
      fresh;
  std::size_t batch_begin = 0;
  while (batch_begin < items.size()) {
    std::size_t batch_end = batch_begin;
    std::uint64_t batch_bytes = 0;
    while (batch_end < items.size() &&
           (batch_end == batch_begin ||
            batch_bytes + items[batch_end].file->size() <=
                options_.front_end_batch_bytes)) {
      batch_bytes += items[batch_end].file->size();
      ++batch_end;
    }
    if (plans.size() < batch_end - batch_begin) {
      plans.resize(batch_end - batch_begin);
    }

    for (std::size_t i = batch_begin; i < batch_end; ++i) {
      const dataset::FileEntry& file = *items[i].file;
      FrontEnd& fe = plans[i - batch_begin];
      {
        const StopWatch t;
        dataset::materialize_into(file.content, fe.content);
        l.read_s += t.seconds();
        l.read_bytes += fe.content.size();
      }
      if (commits[items[i].stream].tiny) {
        fe.plan.chunks.clear();
        fe.plan.digests.clear();
        if (!fe.content.empty()) {
          const StopWatch t;
          fe.tiny_digest = hash::Rabin96::hash(fe.content);
          l.hash_tiny_s += t.seconds();
          l.hash_bytes += fe.content.size();
        }
        continue;
      }
      // core::chunk_and_fingerprint, with its two calls timed apart.
      const core::CategoryPolicy policy = policy_.for_kind(file.kind);
      core::FileChunkPlan plan;
      {
        const StopWatch t;
        plan.chunks = policy.chunker->split(fe.content);
        l.chunk_s[static_cast<int>(dataset::category_of(file.kind))] +=
            t.seconds();
        l.chunk_bytes += fe.content.size();
        l.chunks += plan.chunks.size();
      }
      {
        const StopWatch t;
        core::fingerprint_chunks(policy, fe.content, plan);
        l.hash_s[static_cast<int>(policy.hash_kind)] += t.seconds();
        l.hash_bytes += fe.content.size();
      }
      fe.plan = std::move(plan);
    }

    for (std::size_t i = batch_begin; i < batch_end; ++i) {
      Stream& stream = commits[items[i].stream];
      FrontEnd& fe = plans[i - batch_begin];
      ++l.files;
      container::FileRecipe recipe;
      recipe.path = items[i].file->path;
      recipe.file_size = fe.content.size();
      recipe.tag = stream.tiny ? std::string() : *stream.key;
      if (stream.tiny) {
        ++l.tiny_files;
        if (!fe.content.empty()) {
          index::ChunkLocation location;
          timed_container(l.store_s, [&] {
            location = stream.manager->store(fe.tiny_digest, fe.content);
          });
          l.store_bytes += fe.content.size();
          recipe.entries.push_back(
              container::RecipeEntry{fe.tiny_digest, location});
        }
        recipes.put(std::move(recipe));
        continue;
      }
      {
        const StopWatch t;
        stream.shard->lookup_batch(fe.plan.digests, found);
        l.lookup_s += t.seconds();
        l.lookups += fe.plan.digests.size();
      }
      // The engine's commit: index hits reuse the stored location, repeats
      // within the file reuse the location committed moments ago, and
      // everything else is packed and indexed.
      fresh.clear();
      recipe.entries.reserve(fe.plan.chunks.size());
      for (std::size_t c = 0; c < fe.plan.chunks.size(); ++c) {
        const chunk::ChunkRef& ref = fe.plan.chunks[c];
        const hash::Digest& digest = fe.plan.digests[c];
        index::ChunkLocation location;
        if (found[c]) {
          location = *found[c];
          ++l.hits;
        } else if (const auto it = fresh.find(digest); it != fresh.end()) {
          location = it->second;
        } else {
          const ConstByteSpan bytes =
              ConstByteSpan{fe.content}.subspan(ref.offset, ref.length);
          timed_container(l.store_s, [&] {
            location = stream.manager->store(digest, bytes);
          });
          l.store_bytes += bytes.size();
          const StopWatch t;
          stream.shard->insert(digest, location);
          l.insert_s += t.seconds();
          ++l.inserts;
          fresh.emplace(digest, location);
        }
        recipe.entries.push_back(container::RecipeEntry{digest, location});
      }
      recipes.put(std::move(recipe));
    }
    batch_begin = batch_end;
  }
  for (Stream& stream : commits) {
    timed_container(l.flush_s, [&] { stream.manager->flush(); });
  }

  // Metadata sync: recipes, then the incremental index checkpoint.
  ByteBuffer recipe_image;
  {
    const StopWatch t;
    recipe_image = recipes.serialize();
    l.recipe_serialize_s += t.seconds();
    l.recipe_bytes += recipe_image.size();
  }
  enqueue(backup::keys::session_meta(kSchemeName, snapshot.session, "recipes"),
          std::move(recipe_image), core::ObjectKind::kMetadata);
  ByteBuffer index_image;
  {
    const StopWatch t;
    index::BufferCheckpointSink sink;
    index_.checkpoint(sink);
    index_image = sink.take();
    l.checkpoint_s += t.seconds();
    l.checkpoint_bytes += index_image.size();
  }
  enqueue(backup::keys::session_meta(kSchemeName, snapshot.session, "index"),
          std::move(index_image), core::ObjectKind::kMetadata);
  {
    const StopWatch t;
    pipeline.finish();
    l.drain_s += t.seconds();
  }
  // The engine keeps every session's recipes for point-in-time restore.
  history_[snapshot.session] = recipes;
  latest_ = std::move(recipes);
  l.backup_wall_s += wall.seconds();

  l.upload_s += upload_s;
  l.items += pipeline.enqueued();
  l.pipeline_failed += pipeline.failed();
  const cloud::StoreStats after = target_.store().stats();
  const SessionTotals totals{snapshot.total_bytes(),
                            after.bytes_uploaded - before.bytes_uploaded,
                            after.put_requests - before.put_requests};
  l.put_requests += totals.put_requests;
  l.bytes_up += totals.shipped_bytes;
  l.transfer_sim_s += target_.transfer_seconds();
  return totals;
}

std::uint64_t LayerWalk::restore(const dataset::Snapshot& snapshot) {
  Layers& l = layers_;
  const cloud::StoreStats before = target_.store().stats();
  target_.reset_transfer_clock();
  std::map<std::uint64_t, std::unique_ptr<container::ContainerReader>>
      readers;
  std::uint64_t mismatches = 0;
  ByteBuffer out;
  ByteBuffer input;
  for (const dataset::FileEntry& file : snapshot.files) {
    const container::FileRecipe* recipe = latest_.find(file.path);
    if (recipe == nullptr) {
      ++mismatches;
      continue;
    }
    // Mirrors the engine's restore_recipe: fetch and parse each container
    // once, then copy every chunk out of it in recipe order.
    const StopWatch file_wall;
    out.clear();
    out.reserve(recipe->file_size);
    for (const container::RecipeEntry& entry : recipe->entries) {
      auto it = readers.find(entry.location.container_id);
      if (it == readers.end()) {
        const StopWatch get;
        auto object = target_.download(
            backup::keys::container_object(entry.location.container_id));
        l.download_s += get.seconds();
        if (!object.ok()) {
          throw FormatError("layer walk: missing container " +
                            std::to_string(entry.location.container_id));
        }
        const StopWatch parse;
        auto reader = std::make_unique<container::ContainerReader>(
            std::move(object).value());
        l.reader_s += parse.seconds();
        it = readers.emplace(entry.location.container_id, std::move(reader))
                 .first;
      }
      const StopWatch copy;
      append(out,
             it->second->chunk_at(entry.location.offset, entry.location.length));
      l.chunk_copy_s += copy.seconds();
    }
    l.restore_wall_s += file_wall.seconds();
    l.restored_bytes += out.size();

    dataset::materialize_into(file.content, input);
    if (out != input) ++mismatches;
  }
  const cloud::StoreStats after = target_.store().stats();
  l.get_requests += after.get_requests - before.get_requests;
  l.bytes_down += after.bytes_downloaded - before.bytes_downloaded;
  l.transfer_sim_s += target_.transfer_seconds();
  return mismatches;
}

void LayerWalk::report(MetricMap& out) const {
  const Layers& l = layers_;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

  const double chunk_s = l.chunk_s[0] + l.chunk_s[1] + l.chunk_s[2];
  const double hash_s =
      l.hash_s[0] + l.hash_s[1] + l.hash_s[2] + l.hash_tiny_s;
  const double walk_wall_s = l.backup_wall_s + l.restore_wall_s;
  // Every walk-thread self time; together they partition the walk's wall.
  const double attributed =
      l.read_s + l.classify_s + chunk_s + hash_s + l.lookup_s + l.insert_s +
      l.store_s + l.flush_s + l.enqueue_wait_s + l.drain_s +
      l.recipe_serialize_s + l.checkpoint_s + l.download_s + l.reader_s +
      l.chunk_copy_s;

  out["dataset.read_s"] = {l.read_s, "s"};
  out["dataset.read_bytes"] = {u(l.read_bytes), "B"};

  out["core.classify_s"] = {l.classify_s, "s"};
  out["core.files"] = {u(l.files), "count"};
  out["core.tiny_files"] = {u(l.tiny_files), "count"};
  out["core.unattributed_s"] = {walk_wall_s - attributed, "s"};
  out["core.walk_wall_s"] = {walk_wall_s, "s"};
  out["core.upload_pipeline.enqueue_wait_s"] = {l.enqueue_wait_s, "s"};
  out["core.upload_pipeline.drain_s"] = {l.drain_s, "s"};
  out["core.upload_pipeline.items"] = {u(l.items), "count"};
  out["core.upload_pipeline.failed"] = {u(l.pipeline_failed), "count"};

  out["chunk.s"] = {chunk_s, "s"};
  out["chunk.bytes"] = {u(l.chunk_bytes), "B"};
  out["chunk.chunks"] = {u(l.chunks), "count"};
  out["chunk.mean_chunk_bytes"] = {ratio(u(l.chunk_bytes), u(l.chunks)), "B"};
  out["chunk.wfc.s"] = {l.chunk_s[0], "s"};
  out["chunk.sc.s"] = {l.chunk_s[1], "s"};
  out["chunk.cdc.s"] = {l.chunk_s[2], "s"};

  out["hash.s"] = {hash_s, "s"};
  out["hash.bytes"] = {u(l.hash_bytes), "B"};
  out["hash.rabin96.s"] = {l.hash_s[0], "s"};
  out["hash.md5.s"] = {l.hash_s[1], "s"};
  out["hash.sha1.s"] = {l.hash_s[2], "s"};
  out["hash.tiny.s"] = {l.hash_tiny_s, "s"};

  out["index.lookup_s"] = {l.lookup_s, "s"};
  out["index.lookups"] = {u(l.lookups), "count"};
  out["index.hits"] = {u(l.hits), "count"};
  out["index.hit_ratio"] = {ratio(u(l.hits), u(l.lookups)), "ratio"};
  out["index.insert_s"] = {l.insert_s, "s"};
  out["index.inserts"] = {u(l.inserts), "count"};
  out["index.checkpoint_s"] = {l.checkpoint_s, "s"};
  out["index.checkpoint_bytes"] = {u(l.checkpoint_bytes), "B"};

  out["container.store_s"] = {l.store_s, "s"};
  out["container.store_bytes"] = {u(l.store_bytes), "B"};
  out["container.sealed"] = {u(l.sealed), "count"};
  out["container.fill_ratio"] = {
      ratio(u(l.store_bytes),
            u(l.sealed) * static_cast<double>(options_.container_capacity)),
      "ratio"};
  out["container.flush_s"] = {l.flush_s, "s"};
  out["container.recipe_serialize_s"] = {l.recipe_serialize_s, "s"};
  out["container.recipe_bytes"] = {u(l.recipe_bytes), "B"};
  out["container.reader_s"] = {l.reader_s, "s"};
  out["container.chunk_copy_s"] = {l.chunk_copy_s, "s"};
  out["container.read_amplification"] = {
      ratio(u(l.bytes_down), u(l.restored_bytes)), "ratio"};

  out["cloud.upload_s"] = {l.upload_s, "s"};
  out["cloud.put_requests"] = {u(l.put_requests), "count"};
  out["cloud.bytes_up"] = {u(l.bytes_up), "B"};
  out["cloud.transfer_sim_s"] = {l.transfer_sim_s, "s"};
  out["cloud.download_s"] = {l.download_s, "s"};
  out["cloud.get_requests"] = {u(l.get_requests), "count"};
  out["cloud.bytes_down"] = {u(l.bytes_down), "B"};
  out["cloud.retries"] = {u(target_.retrier().retries()), "count"};
}

}  // namespace aadedupe::bench_session
