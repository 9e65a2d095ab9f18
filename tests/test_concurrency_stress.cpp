// Concurrency stress tests — written to give ThreadSanitizer something to
// chew on (build with the `tsan` preset / AAD_SANITIZE=thread). Each test
// drives a shared-state hot path hard enough that an unlocked access, a
// missed notify, or an ordering bug has a real chance to manifest, and TSan
// turns "a chance" into a deterministic report.
//
// The suites also run (smaller) in the plain and ASan builds, where they
// assert the functional invariants: no lost items, no double-visits, no
// deadlocks, parallel == serial dedup results.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "core/aa_dedupe.hpp"
#include "dataset/generator.hpp"
#include "hash/sha1.hpp"
#include "index/checkpoint.hpp"
#include "index/log_structured_index.hpp"
#include "index/memory_index.hpp"
#include "index/partitioned_index.hpp"
#include "util/bounded_queue.hpp"
#include "util/thread_pool.hpp"

namespace aadedupe {
namespace {

// TSan instrumentation costs ~5-15x; keep wall-clock comparable by scaling
// the storm sizes down (the interleaving coverage matters, not the volume).
#ifdef AAD_TSAN
constexpr std::size_t kScale = 1;
#else
constexpr std::size_t kScale = 8;
#endif

// ---- ThreadPool: contended parallel_for ------------------------------------

TEST(StressThreadPool, ContendedGrainsVisitEveryIndexOnce) {
  // Repeated parallel_for rounds with every grain shape over one pool: the
  // work-stealing counter, the futures, and the queue mutex all stay hot.
  ThreadPool pool(8);
  const std::size_t n = 2000 * kScale;
  std::vector<std::atomic<std::uint8_t>> hits(n);
  for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{64}}) {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    pool.parallel_for(
        n, [&](std::size_t i) { hits[i].fetch_add(1); }, grain);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "index " << i << " grain " << grain;
    }
  }
}

TEST(StressThreadPool, ConcurrentParallelForCallersShareOnePool) {
  // Several external threads each run their own parallel_for on the same
  // pool. Their chunk tasks interleave in the shared deque; each caller's
  // atomic cursor and error slot must stay isolated.
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 4;
  const std::size_t n = 1500 * kScale;
  std::vector<std::vector<std::atomic<std::uint8_t>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<std::uint8_t>>(n);
  }
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.parallel_for(
          n, [&, c](std::size_t i) { hits[c][i].fetch_add(1); },
          /*grain=*/1 + c % 3);
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[c][i].load(), 1u) << "caller " << c << " index " << i;
    }
  }
}

TEST(StressThreadPool, SubmitStormFromManyThreads) {
  // Producers race submit() against workers draining; the final count
  // proves no task was dropped between the lock release and notify.
  ThreadPool pool(4);
  constexpr std::size_t kProducers = 6;
  const std::size_t per_producer = 400 * kScale;
  std::atomic<std::size_t> ran{0};
  std::vector<std::future<void>> futures[kProducers];
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (auto& f : futures) f.reserve(per_producer);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < per_producer; ++i) {
        futures[p].push_back(pool.submit([&ran] { ++ran; }));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& fs : futures) {
    for (auto& f : fs) f.get();
  }
  EXPECT_EQ(ran.load(), kProducers * per_producer);
}

// ---- BoundedQueue: producer/consumer storms --------------------------------

TEST(StressBoundedQueue, ManyProducersManyConsumersLoseNothing) {
  // Tight capacity (4) maximizes blocking on both conditions: producers
  // park on not_full_, consumers on not_empty_, and every push/pop pair
  // crosses the mutex. Token sum proves exactly-once delivery.
  BoundedQueue<std::uint64_t> queue(4);
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  const std::uint64_t per_producer = 2000 * kScale;

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        ASSERT_TRUE(queue.push(p * per_producer + i));
      }
    });
  }

  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> count{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      // Mix blocking pop with opportunistic try_pop to cover both paths.
      for (;;) {
        std::optional<std::uint64_t> item = queue.try_pop();
        if (!item) item = queue.pop();
        if (!item) return;  // closed and drained
        sum.fetch_add(*item);
        count.fetch_add(1);
      }
    });
  }

  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();

  const std::uint64_t total = kProducers * per_producer;
  EXPECT_EQ(count.load(), total);
  EXPECT_EQ(sum.load(), total * (total - 1) / 2);
}

TEST(StressBoundedQueue, CloseMidStormUnblocksEverybody) {
  // close() fires while producers are blocked on a full queue and consumers
  // are mid-drain; every thread must return (no lost wakeup), pushes after
  // close must report false, and items delivered never exceed items pushed.
  for (int round = 0; round < static_cast<int>(4 * kScale); ++round) {
    BoundedQueue<int> queue(2);
    std::atomic<std::size_t> pushed{0};
    std::atomic<std::size_t> popped{0};
    std::vector<std::thread> threads;
    threads.reserve(5);
    for (int p = 0; p < 2; ++p) {
      threads.emplace_back([&] {
        for (int i = 0; i < 10000; ++i) {
          if (!queue.push(i)) return;  // closed under us
          pushed.fetch_add(1);
        }
      });
    }
    for (int c = 0; c < 2; ++c) {
      threads.emplace_back([&] {
        while (queue.pop()) popped.fetch_add(1);
      });
    }
    threads.emplace_back([&] { queue.close(); });
    for (auto& t : threads) t.join();
    EXPECT_LE(popped.load(), pushed.load() + 2);  // <= pushed + capacity slack
    EXPECT_FALSE(queue.push(-1));
  }
}

// ---- Index: lookups and mutations racing checkpoints -----------------------

TEST(StressIndex, LogStructuredLookupsRaceCheckpointsAndFlushes) {
  // Readers, writers, and a checkpoint thread share one LogStructuredIndex
  // with a memtable small enough that seals and compactions fire mid-storm.
  // The journal (checkpoint chain), the bloom filter, the entry cache, and
  // the segment list all mutate under the same locks the lookups take.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("aad_stress_lsi_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    index::LogStructuredIndex::Options options;
    options.memtable_limit = 256;
    options.max_segments = 4;
    index::LogStructuredIndex idx(dir, options);

    constexpr int kWriters = 4;
    const int per_writer = static_cast<int>(500 * kScale);
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    threads.reserve(kWriters + 2);
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int i = 0; i < per_writer; ++i) {
          const int key = w * per_writer + i;
          const auto d =
              hash::Sha1::hash(as_bytes("stress-" + std::to_string(key)));
          idx.insert(d, index::ChunkLocation{
                            static_cast<std::uint64_t>(key), 0, 1});
          ASSERT_TRUE(idx.lookup(d).has_value());
          idx.maybe_contains(
              hash::Sha1::hash(as_bytes("absent-" + std::to_string(key))));
        }
      });
    }
    threads.emplace_back([&] {  // batched reader
      std::vector<hash::Digest> digests;
      std::vector<std::optional<index::ChunkLocation>> found;
      while (!done.load(std::memory_order_relaxed)) {
        digests.clear();
        for (int i = 0; i < 64; ++i) {
          digests.push_back(
              hash::Sha1::hash(as_bytes("stress-" + std::to_string(i * 37))));
        }
        idx.lookup_batch(digests, found);
      }
    });
    threads.emplace_back([&] {  // checkpoint thread
      while (!done.load(std::memory_order_relaxed)) {
        index::BufferCheckpointSink sink;
        idx.checkpoint(sink);
        index::BufferCheckpointSink full;
        idx.checkpoint_full(full);
        std::this_thread::yield();
      }
    });
    for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
    done.store(true, std::memory_order_relaxed);
    threads[kWriters].join();
    threads[kWriters + 1].join();

    EXPECT_EQ(idx.size(),
              static_cast<std::uint64_t>(kWriters) *
                  static_cast<std::uint64_t>(per_writer));
    // A final checkpoint drains whatever the racing deltas missed, and a
    // fresh consumer replaying it converges on the same contents.
    index::BufferCheckpointSink final_full;
    idx.checkpoint_full(final_full);
    index::MemoryChunkIndex replica;
    index::BufferCheckpointSource source(final_full.buffer());
    replica.restore(source);
    EXPECT_EQ(replica.size(), idx.size());
  }
  std::filesystem::remove_all(dir);
}

TEST(StressIndex, PartitionedShardsCheckpointWhileOtherShardsCommit) {
  // One thread per shard keeps inserting while the "sync" thread snapshots
  // the whole partitioned index — the exact overlap run_session creates
  // when the upload pipeline serializes the index as workers finish.
  index::PartitionedIndex idx;
  const std::vector<std::string> parts = {"doc", "mp3", "vmdk", "txt"};
  for (const auto& p : parts) idx.shard(p);

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  threads.reserve(parts.size() + 1);
  for (const auto& p : parts) {
    threads.emplace_back([&idx, p] {
      index::ChunkIndex& shard = idx.shard(p);
      for (int i = 0; i < static_cast<int>(2000 * kScale); ++i) {
        const auto d = hash::Sha1::hash(as_bytes(p + std::to_string(i)));
        shard.insert(d, index::ChunkLocation{
                            static_cast<std::uint64_t>(i), 0, 1});
        shard.lookup(d);
      }
    });
  }
  std::uint64_t checkpoints = 0;
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      index::BufferCheckpointSink sink;
      idx.checkpoint(sink);
      ++checkpoints;
      std::this_thread::yield();
    }
  });
  for (std::size_t i = 0; i < parts.size(); ++i) threads[i].join();
  done.store(true, std::memory_order_relaxed);
  threads.back().join();

  EXPECT_GT(checkpoints, 0u);
  EXPECT_EQ(idx.total_size(), parts.size() * 2000 * kScale);
  // The chain the sync thread shipped plus one final delta reconstructs
  // the full index on a consumer.
  index::BufferCheckpointSink full;
  idx.checkpoint_full(full);
  index::PartitionedIndex replica;
  index::BufferCheckpointSource source(full.buffer());
  replica.restore(source);
  EXPECT_EQ(replica.total_size(), idx.total_size());
}

// ---- Parallel backup session over a synthetic dataset ----------------------

TEST(StressSession, ParallelFrontEndMatchesSerialUnderLoad) {
  // A multi-session parallel backup (8 workers, deliberately tiny batch
  // budget so the batch loop and the per-stream commit spans cycle many
  // times) against the same dataset run on one worker. Under TSan this is
  // the main course: chunking workers racing the shared pool, per-stream
  // shards committing concurrently, the key-store mutex, and the upload
  // pipeline all live here.
  dataset::DatasetConfig config;
  config.seed = 20260807;
  config.session_bytes = (1ull << 20) * kScale;
  config.max_file_bytes = 256u << 10;

  dataset::DatasetGenerator gen_parallel(config);
  dataset::DatasetGenerator gen_serial(config);

  cloud::CloudTarget target_p, target_s;
  core::AaDedupeOptions par_opts;
  par_opts.front_end_batch_bytes = 256u << 10;
  par_opts.worker_threads = 8;
  core::AaDedupeOptions ser_opts;
  ser_opts.worker_threads = 1;

  core::AaDedupeScheme parallel_scheme(target_p, par_opts);
  core::AaDedupeScheme serial_scheme(target_s, ser_opts);

  dataset::Snapshot snap_p, snap_s;
  for (int session = 0; session < 3; ++session) {
    snap_p = session == 0 ? gen_parallel.initial() : gen_parallel.next(snap_p);
    snap_s = session == 0 ? gen_serial.initial() : gen_serial.next(snap_s);
    const auto report_p = parallel_scheme.backup(snap_p);
    const auto report_s = serial_scheme.backup(snap_s);
    // Identical dedup decisions, not just identical bytes: the paper's
    // equivalence claim (§IV) is about effectiveness, so compare the
    // metrics that define it.
    EXPECT_EQ(report_p.dataset_bytes, report_s.dataset_bytes);
    EXPECT_EQ(report_p.transferred_bytes, report_s.transferred_bytes);
    EXPECT_EQ(report_p.upload_requests, report_s.upload_requests);
  }

  EXPECT_EQ(parallel_scheme.aa_index().total_size(),
            serial_scheme.aa_index().total_size());
  for (std::size_t i = 0; i < snap_p.files.size();
       i += (i + 11 < snap_p.files.size() ? std::size_t{11} : std::size_t{1})) {
    ASSERT_EQ(parallel_scheme.restore_file(snap_p.files[i].path),
              serial_scheme.restore_file(snap_s.files[i].path))
        << snap_p.files[i].path;
  }
}

TEST(StressSession, ConcurrentIndependentSchemesDoNotInterfere) {
  // Two full backup stacks on two OS threads: everything is supposed to be
  // instance-confined, so TSan must stay silent and the results must match
  // a reference run byte-for-byte.
  dataset::DatasetConfig config;
  config.seed = 7;
  config.session_bytes = 1ull << 20;
  config.max_file_bytes = 128u << 10;

  auto run_backup = [&config]() -> std::size_t {
    dataset::DatasetGenerator gen(config);
    cloud::CloudTarget target;
    core::AaDedupeOptions opts;
    opts.worker_threads = 4;
    core::AaDedupeScheme scheme(target, opts);
    scheme.backup(gen.initial());
    return scheme.aa_index().total_size();
  };

  std::size_t size_a = 0, size_b = 0;
  std::thread a([&] { size_a = run_backup(); });
  std::thread b([&] { size_b = run_backup(); });
  a.join();
  b.join();
  EXPECT_EQ(size_a, size_b);
  EXPECT_GT(size_a, 0u);
}

}  // namespace
}  // namespace aadedupe
