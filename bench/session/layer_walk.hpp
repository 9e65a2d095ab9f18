// Outside-in per-layer trace of one AA-Dedupe client.
//
// LayerWalk replays the default engine's session algorithm (file size
// filter -> per-application stream -> chunk -> fingerprint -> batched index
// probe -> container packing -> pipelined upload -> recipe and index
// metadata sync) serially on the calling thread, calling each layer's public
// functions directly and timing every call. Nothing inside src/ is
// instrumented, so the numbers cost one clock read per call and the
// program under test is the one the end-to-end run measures.
//
// The walk owns its client state (index, container ids, recipes) and its
// own simulated cloud, so a session it backs up can be compared byte for
// byte with what AaDedupeScheme ships for the same snapshot.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "cloud/cloud_target.hpp"
#include "container/container_manager.hpp"
#include "container/recipe.hpp"
#include "core/aa_dedupe.hpp"
#include "core/policy.hpp"
#include "core/upload_journal.hpp"
#include "dataset/snapshot.hpp"
#include "index/partitioned_index.hpp"

namespace aadedupe::bench_session {

/// One reported number with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics by name (sorted, so every artifact lists them in one order).
using MetricMap = std::map<std::string, Metric>;

/// What one backup session shipped, as the cloud counted it.
struct SessionTotals {
  std::uint64_t logical_bytes = 0;
  std::uint64_t shipped_bytes = 0;
  std::uint64_t put_requests = 0;

  friend bool operator==(const SessionTotals&,
                         const SessionTotals&) = default;
};

class LayerWalk {
 public:
  LayerWalk() = default;

  LayerWalk(const LayerWalk&) = delete;
  LayerWalk& operator=(const LayerWalk&) = delete;

  /// Back up one snapshot. Only sessions with `record` set add to the
  /// per-layer totals; earlier sessions just build the client state.
  SessionTotals backup(const dataset::Snapshot& snapshot, bool record);

  /// Restore every file of the latest backed-up session from the walk's
  /// cloud, as a cold client would (fresh container cache), and compare
  /// each with `snapshot`'s input bytes outside the timed calls. Returns
  /// the number of files whose bytes differ.
  std::uint64_t restore(const dataset::Snapshot& snapshot);

  /// Wall time of the recorded backup sessions.
  [[nodiscard]] double backup_wall_s() const noexcept {
    return layers_.backup_wall_s;
  }

  /// Per-layer metrics of the recorded sessions plus the restore. Walk-
  /// thread self times partition core.walk_wall_s; the remainder is
  /// core.unattributed_s.
  void report(MetricMap& out) const;

 private:
  /// Accumulated self time (s), work counts and bytes per layer.
  struct Layers {
    double read_s = 0.0;
    std::uint64_t read_bytes = 0;
    double classify_s = 0.0;
    std::uint64_t files = 0;
    std::uint64_t tiny_files = 0;
    // Indexed by dataset::AppCategory (wfc, sc, cdc).
    double chunk_s[3] = {};
    std::uint64_t chunk_bytes = 0;
    std::uint64_t chunks = 0;
    // Indexed by hash::HashKind; the tiny-file tag hash is kept apart.
    double hash_s[3] = {};
    double hash_tiny_s = 0.0;
    std::uint64_t hash_bytes = 0;
    double lookup_s = 0.0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    double insert_s = 0.0;
    std::uint64_t inserts = 0;
    double checkpoint_s = 0.0;
    std::uint64_t checkpoint_bytes = 0;
    double store_s = 0.0;  // excludes the enqueue wait of sealed containers
    std::uint64_t store_bytes = 0;
    std::uint64_t sealed = 0;
    double flush_s = 0.0;  // excludes the enqueue wait
    double recipe_serialize_s = 0.0;
    std::uint64_t recipe_bytes = 0;
    double enqueue_wait_s = 0.0;
    double drain_s = 0.0;
    std::uint64_t items = 0;
    std::uint64_t pipeline_failed = 0;
    double upload_s = 0.0;  // on the uploader thread, not the walk thread
    std::uint64_t put_requests = 0;
    std::uint64_t bytes_up = 0;
    double transfer_sim_s = 0.0;
    double download_s = 0.0;
    double reader_s = 0.0;
    double chunk_copy_s = 0.0;
    std::uint64_t get_requests = 0;
    std::uint64_t bytes_down = 0;
    std::uint64_t restored_bytes = 0;
    double backup_wall_s = 0.0;
    double restore_wall_s = 0.0;
  };

  /// The engine's defaults, which the walk replays (tiny-file threshold,
  /// container capacity, front-end batch size, policy table).
  const core::AaDedupeOptions options_{};
  cloud::CloudTarget target_;
  core::DedupPolicy policy_{options_.policy};
  index::PartitionedIndex index_;
  container::ContainerIdAllocator container_ids_;
  core::UploadJournal journal_;
  std::map<std::uint32_t, container::RecipeStore> history_;
  container::RecipeStore latest_;
  Layers layers_;
};

}  // namespace aadedupe::bench_session
