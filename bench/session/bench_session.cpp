// bench_session: end-to-end backup/restore benchmark of the AA-Dedupe
// client over four workloads, plus a separate traced run that breaks each
// workload down layer by layer (see README.md for the workloads, metric
// definitions, bounds, and the layer -> end-to-end map).
//
//   bench_session --workload <name|all> [--seed n] [--reps k] [--seconds s]
//                 [--layers] [--smoke] --out <results.json>
//
// Without --layers the run measures the end-to-end metrics with telemetry
// off. With --layers it replays each workload through LayerWalk (per-layer
// self times and counts) and times the scheme at 1 and at 4 workers on the
// same snapshots. --smoke shrinks every workload and runs both modes.
//
// Each metric is printed as `workload metric value unit` (the median over
// reps) and written to the results file with every per-rep sample, the
// median and the quartiles. Every output is checked (restored bytes, walk
// vs scheme shipped bytes and PUTs, pipeline failures); any failed check
// makes the exit code nonzero.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cloud/cloud_target.hpp"
#include "core/aa_dedupe.hpp"
#include "dataset/generator.hpp"
#include "layer_walk.hpp"
#include "telemetry/build_info.hpp"
#include "telemetry/json.hpp"
#include "telemetry/log.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace aadedupe::bench_session {
namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;
constexpr double kMB = 1e6;
constexpr double kGB = 1e9;
/// The client's pool size, fixed so results do not depend on the host's
/// core count (hardware_threads is stamped into every results file, and
/// compare.py refuses to compare runs from hosts that differ in it).
constexpr std::size_t kWorkerThreads = 4;
/// The CLUSTER'11 conference date: the seed of every workload's shape (file
/// tree, file sizes, weekly churn) and the default content seed.
constexpr std::uint64_t kShapeSeed = 20110926;

telemetry::Logger& log() { return telemetry::stderr_logger(); }

// ---------------------------------------------------------------- workloads

enum class Kind : std::uint8_t { kBackup, kRestore };

struct Workload {
  std::string name;
  Kind kind = Kind::kBackup;
  dataset::DatasetConfig data;
  std::uint32_t sessions = 1;
  /// Sessions before this one run untimed; they only build client state.
  std::uint32_t first_timed = 0;
};

/// Sizes are chosen so one run holds many reps and every input stays in
/// RAM; README.md records why each workload exists.
std::vector<Workload> all_workloads(bool smoke) {
  const auto config = [&](std::uint64_t session_bytes,
                          std::uint64_t max_file_bytes) {
    dataset::DatasetConfig c;
    c.seed = kShapeSeed;
    c.session_bytes = smoke ? 8 * kMiB : session_bytes;
    c.max_file_bytes = max_file_bytes;
    return c;
  };
  const std::uint32_t weeks = smoke ? 3 : 10;
  return {
      {"initial_backup", Kind::kBackup, config(128 * kMiB, 8 * kMiB), 1, 0},
      {"weekly_incremental", Kind::kBackup, config(48 * kMiB, 8 * kMiB),
       weeks, 1},
      {"small_files_incremental", Kind::kBackup,
       config(256 * kMiB, 128 * 1024), weeks, 1},
      {"restore_latest", Kind::kRestore, config(48 * kMiB, 8 * kMiB), weeks,
       1},
  };
}

/// A byte substitution keyed by the run's seed: a permutation of the 255
/// non-zero byte values (zero stays zero, so sparse VM-image regions stay
/// zero runs). Applied to every byte of a workload it keeps every equality
/// the shape defines — duplicate files, shared pool runs, regions unchanged
/// across sessions — while each seed gets its own content, fingerprints and
/// content-defined cut points. Seeds therefore vary the bytes but not the
/// amount of redundancy, so runs with different seeds measure the same
/// workload.
std::array<std::byte, 256> content_key(std::uint64_t seed) {
  std::array<std::byte, 256> key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::byte>(i);
  }
  Xoshiro256 rng(derive_seed(seed, 0xC0DE));
  for (std::size_t i = 255; i > 1; --i) {
    std::swap(key[i], key[1 + rng.below(i)]);
  }
  return key;
}

/// Generate the workload's snapshots, key their bytes with `seed`, and carry
/// every file's bytes in one literal segment, so the engine receives only
/// bytes: its materialize step becomes a memcpy standing in for a
/// page-cache read, and synthetic generation is never counted as dedup
/// time.
std::vector<dataset::Snapshot> make_input(const Workload& w,
                                          std::uint64_t seed) {
  const std::array<std::byte, 256> key = content_key(seed);
  dataset::DatasetGenerator generator(w.data);
  std::vector<dataset::Snapshot> snapshots = generator.sessions(w.sessions);
  for (dataset::Snapshot& snapshot : snapshots) {
    for (dataset::FileEntry& file : snapshot.files) {
      ByteBuffer bytes = dataset::materialize(file.content);
      for (std::byte& b : bytes) b = key[std::to_integer<std::size_t>(b)];
      const auto length = static_cast<std::uint32_t>(bytes.size());
      file.content.segments.clear();
      if (length > 0) {
        file.content.segments.emplace_back(dataset::Segment::Type::kLiteral,
                                           0, length, std::move(bytes));
      }
    }
  }
  return snapshots;
}

bool same_bytes(const ByteBuffer& restored, const dataset::FileEntry& file) {
  if (file.content.segments.empty()) return restored.empty();
  return restored == file.content.segments.front().literal;
}

core::AaDedupeOptions scheme_options(std::size_t workers) {
  core::AaDedupeOptions options;
  options.worker_threads = workers;
  return options;
}

// ------------------------------------------------------------ measurement

// Live and peak bytes of every C++ heap allocation in the process, kept by
// the replacement operator new/delete at the end of this file.
std::atomic<std::int64_t> g_heap_live{0};
std::atomic<std::int64_t> g_heap_peak{0};

/// Peak heap growth of a timed unit: reset() before it, growth_bytes()
/// after. It counts every C++ allocation of every thread (the engine's
/// buffers, the upload queue, the cloud's objects) to the byte. RSS cannot
/// stand in for it: the harness keeps its heap warm (see main), so a rep
/// reuses pages earlier reps faulted in and never moves the kernel's
/// high-water mark.
class HeapMeter {
 public:
  void reset() {
    base_ = g_heap_live.load(std::memory_order_relaxed);
    g_heap_peak.store(base_, std::memory_order_relaxed);
  }

  [[nodiscard]] double growth_bytes() const {
    return static_cast<double>(g_heap_peak.load(std::memory_order_relaxed) -
                               base_);
  }

 private:
  std::int64_t base_ = 0;
};

/// The process's peak resident set (VmHWM), for the results file.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// The shared host's CPU speed drifts by 10-25% over minutes and at times
/// halves for a minute; process CPU time per GB moves with it, so the CPU
/// itself slows, not just the scheduler. Right before each timed unit the
/// harness runs this probe: a fixed integer workload on kWorkerThreads
/// threads over a 16 KiB table each, timed in per-thread CPU seconds. It is
/// bench code that touches none of the program, so only the host moves it.
constexpr std::uint32_t kProbeSteps = 1u << 20;
/// Median probe CPU time on the 4-thread host of the committed baseline: a
/// probe this fast means host speed 1.
constexpr double kProbeReferenceS = 0.0022;
std::atomic<std::uint64_t> g_probe_sink{0};

/// This moment's host speed relative to the baseline host (lower = slower).
double host_speed() {
  std::vector<double> cpu_s(kWorkerThreads);
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kWorkerThreads; ++t) {
      threads.emplace_back([&cpu_s, t] {
        const double begin = thread_cpu_seconds();
        std::array<std::uint64_t, 2048> table{};
        std::uint64_t x = 0x9E3779B97F4A7C15ull ^ t;
        for (std::uint32_t i = 0; i < kProbeSteps; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          table[x & 2047] += x;
        }
        g_probe_sink.fetch_xor(table[x & 2047], std::memory_order_relaxed);
        cpu_s[t] = thread_cpu_seconds() - begin;
      });
    }
  }
  std::sort(cpu_s.begin(), cpu_s.end());
  return kProbeReferenceS /
         ((cpu_s[kWorkerThreads / 2 - 1] + cpu_s[kWorkerThreads / 2]) / 2.0);
}

/// Every attempted operation and every failed output check.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& what) {
    ++failed;
    AAD_LOG(&log(), kError, "session", "check failed: %s", what.c_str());
  }
};

/// Per-rep samples of every metric.
class SampleSet {
 public:
  struct Series {
    std::string unit;
    std::vector<double> values;
  };

  void add(const std::string& name, double value, const std::string& unit) {
    Series& s = series_[name];
    s.unit = unit;
    s.values.push_back(value);
  }

  void add(const MetricMap& metrics) {
    for (const auto& [name, metric] : metrics) {
      add(name, metric.value, metric.unit);
    }
  }

  [[nodiscard]] const std::map<std::string, Series>& series() const {
    return series_;
  }

 private:
  std::map<std::string, Series> series_;
};

/// Median and quartiles, computed as Python's statistics.median and
/// statistics.quantiles(values, n=4) do, so compare.py and the C++ side
/// agree on every number.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

Summary summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  Summary s;
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const auto delta = static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

// ------------------------------------------------------------- operations

/// One client's backup sessions over a snapshot chain.
struct ChainResult {
  double wall_s = 0.0;  // Σ backup() wall over the timed sessions
  double cpu_s = 0.0;
  std::uint64_t logical_bytes = 0;
  std::uint64_t shipped_bytes = 0;
  std::uint64_t put_requests = 0;
  double backup_window_s = 0.0;
  double peak_mib = 0.0;
  double monthly_cost = 0.0;
  std::vector<SessionTotals> sessions;  // timed sessions, in order
};

ChainResult run_chain(core::AaDedupeScheme& scheme, cloud::CloudTarget& cloud,
                      const std::vector<dataset::Snapshot>& snapshots,
                      std::uint32_t first_timed, HeapMeter* meter,
                      Checks& checks) {
  ChainResult r;
  const auto check_journal = [&](const dataset::Snapshot& snapshot) {
    ++checks.attempted;
    if (!scheme.pending_uploads().empty()) {
      checks.fail("session " + std::to_string(snapshot.session) +
                  " left uploads in the journal");
    }
  };
  for (std::uint32_t s = 0; s < first_timed; ++s) {
    (void)scheme.backup(snapshots[s]);
    check_journal(snapshots[s]);
  }
  if (meter != nullptr) meter->reset();
  const std::uint64_t stored_before = cloud.store().stored_bytes();
  for (std::uint32_t s = first_timed; s < snapshots.size(); ++s) {
    const double cpu_before = process_cpu_seconds();
    const StopWatch wall;
    const backup::SessionReport report = scheme.backup(snapshots[s]);
    r.wall_s += wall.seconds();
    r.cpu_s += process_cpu_seconds() - cpu_before;
    r.logical_bytes += report.dataset_bytes;
    r.shipped_bytes += report.transferred_bytes;
    r.put_requests += report.upload_requests;
    r.backup_window_s += report.backup_window_seconds();
    r.sessions.push_back(SessionTotals{report.dataset_bytes,
                                       report.transferred_bytes,
                                       report.upload_requests});
    check_journal(snapshots[s]);
  }
  if (meter != nullptr) {
    const auto cloud_growth = static_cast<double>(
        cloud.store().stored_bytes() - stored_before);
    r.peak_mib = (meter->growth_bytes() - cloud_growth) / kMiB;
  }
  r.monthly_cost = cloud.monthly_cost();
  return r;
}

/// A client that only knows what export_state() carried: restores read
/// every container from the cloud.
std::unique_ptr<core::AaDedupeScheme> cold_client(cloud::CloudTarget& cloud,
                                                  const ByteBuffer& state) {
  auto client = std::make_unique<core::AaDedupeScheme>(
      cloud, scheme_options(kWorkerThreads));
  client->import_state(state);
  return client;
}

struct RestoreResult {
  double wall_s = 0.0;  // Σ restore_file_at wall
  double cpu_s = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t get_requests = 0;
  double window_s = 0.0;
};

/// Restore every path of `snapshot` the way `backup_tool restore` does, and
/// byte-compare each file with its input outside the timed calls.
RestoreResult restore_all(core::AaDedupeScheme& client,
                          cloud::CloudTarget& cloud,
                          const dataset::Snapshot& snapshot, Checks& checks) {
  RestoreResult r;
  const cloud::StoreStats before = cloud.store().stats();
  cloud.reset_transfer_clock();
  for (const dataset::FileEntry& file : snapshot.files) {
    ++checks.attempted;
    try {
      const double cpu_before = process_cpu_seconds();
      const StopWatch wall;
      const ByteBuffer restored =
          client.restore_file_at(file.path, snapshot.session);
      r.wall_s += wall.seconds();
      r.cpu_s += process_cpu_seconds() - cpu_before;
      r.bytes += restored.size();
      if (!same_bytes(restored, file)) {
        checks.fail("restored bytes differ: " + file.path);
      }
    } catch (const std::exception& e) {
      checks.fail("restore " + file.path + ": " + e.what());
    }
  }
  r.get_requests = cloud.store().stats().get_requests - before.get_requests;
  r.window_s = cloud.transfer_seconds();
  return r;
}

/// Every workload reports one set of end-to-end metrics, each measured on
/// its timed unit: the backup sessions of a backup workload, the restore of
/// restore_latest.
void add_stored_metrics(const ChainResult& c, SampleSet& out) {
  out.add("dedupe_ratio",
          static_cast<double>(c.logical_bytes) /
              static_cast<double>(c.shipped_bytes),
          "ratio");
  out.add("cloud_cost_usd_month", c.monthly_cost, "USD/month");
}

/// Wall and CPU costs are reported at the baseline host's speed (raw
/// value scaled by the probe), so drift of the shared host cancels out;
/// the raw values stay in the results file.
void add_unit_metrics(std::uint64_t bytes, double wall_s, double cpu_s,
                      double window_s, std::uint64_t requests,
                      double peak_mib, double speed, SampleSet& out) {
  const double mbps = static_cast<double>(bytes) / kMB / wall_s;
  const double cpu_s_per_gb = cpu_s / (static_cast<double>(bytes) / kGB);
  out.add("throughput_mbps", mbps / speed, "MB/s");
  out.add("cpu_s_per_gb", cpu_s_per_gb * speed, "s/GB");
  out.add("raw.throughput_mbps", mbps, "MB/s");
  out.add("raw.cpu_s_per_gb", cpu_s_per_gb, "s/GB");
  out.add("host_speed", speed, "ratio");
  out.add("client_peak_mib", peak_mib, "MiB");
  out.add("window_s", window_s, "s");
  out.add("requests", static_cast<double>(requests), "count");
}

// ----------------------------------------------------------------- reps

/// Backup workloads: one fresh client backs up the chain (sessions before
/// first_timed untimed), then a cold client restores the last session so
/// every file is byte-compared with its input.
void backup_rep(const Workload& w,
                const std::vector<dataset::Snapshot>& input,
                HeapMeter& meter, SampleSet& out, Checks& checks) {
  const double speed = host_speed();
  cloud::CloudTarget cloud;
  auto scheme = std::make_unique<core::AaDedupeScheme>(
      cloud, scheme_options(kWorkerThreads));
  const ChainResult c =
      run_chain(*scheme, cloud, input, w.first_timed, &meter, checks);
  const ByteBuffer state = scheme->export_state();
  scheme.reset();
  (void)restore_all(*cold_client(cloud, state), cloud, input.back(), checks);

  add_stored_metrics(c, out);
  add_unit_metrics(c.logical_bytes, c.wall_s, c.cpu_s, c.backup_window_s,
                   c.put_requests, c.peak_mib, speed, out);
}

/// restore_latest's set-up result: the backed-up history, the client state
/// a cold client imports, and the latest snapshot to compare against.
struct History {
  std::unique_ptr<cloud::CloudTarget> cloud;
  ByteBuffer state;
  dataset::Snapshot latest;
};

History back_up_history(const Workload& w, std::uint64_t seed,
                        SampleSet& out, Checks& checks) {
  History h;
  std::vector<dataset::Snapshot> input = make_input(w, seed);
  h.cloud = std::make_unique<cloud::CloudTarget>();
  core::AaDedupeScheme scheme(*h.cloud, scheme_options(kWorkerThreads));
  add_stored_metrics(
      run_chain(scheme, *h.cloud, input, w.first_timed, nullptr, checks), out);
  h.state = scheme.export_state();
  h.latest = std::move(input.back());
  return h;
}

/// restore_latest: a cold client (state import untimed) restores every
/// path of the latest session.
void restore_rep(History& h, HeapMeter& meter, SampleSet& out,
                 Checks& checks) {
  auto client = cold_client(*h.cloud, h.state);
  const double speed = host_speed();
  meter.reset();
  const RestoreResult r = restore_all(*client, *h.cloud, h.latest, checks);
  add_unit_metrics(r.bytes, r.wall_s, r.cpu_s, r.window_s, r.get_requests,
                   meter.growth_bytes() / kMiB, speed, out);
}

/// Traced rep: the layer walk over the whole chain (timed sessions
/// recorded) and a restore of the last session, then the scheme at 1 and
/// at 4 workers on the same snapshots. The walk must ship exactly what the
/// scheme ships, session by session.
void layer_rep(const Workload& w,
               const std::vector<dataset::Snapshot>& input, SampleSet& out,
               Checks& checks) {
  MetricMap metrics;
  std::vector<SessionTotals> walked;
  double walk_backup_s = 0.0;
  {
    LayerWalk walk;
    for (const dataset::Snapshot& snapshot : input) {
      const bool timed = snapshot.session >= w.first_timed;
      const SessionTotals totals = walk.backup(snapshot, timed);
      if (timed) walked.push_back(totals);
    }
    checks.attempted += input.back().files.size();
    if (const std::uint64_t bad = walk.restore(input.back()); bad != 0) {
      checks.fail("layer walk restored " + std::to_string(bad) +
                  " file(s) wrong");
    }
    walk.report(metrics);
    walk_backup_s = walk.backup_wall_s();
  }

  double scheme_wall_s[2] = {};
  const std::size_t workers[2] = {1, kWorkerThreads};
  for (int i = 0; i < 2; ++i) {
    cloud::CloudTarget cloud;
    core::AaDedupeScheme scheme(cloud, scheme_options(workers[i]));
    const ChainResult c =
        run_chain(scheme, cloud, input, w.first_timed, nullptr, checks);
    scheme_wall_s[i] = c.wall_s;
    for (std::size_t s = 0; s < walked.size(); ++s) {
      ++checks.attempted;
      const SessionTotals& a = walked[s];
      const SessionTotals& b = c.sessions[s];
      if (!(a == b)) {
        checks.fail("walk vs scheme(" + std::to_string(workers[i]) +
                    " workers) session " +
                    std::to_string(w.first_timed + s) + ": shipped " +
                    std::to_string(a.shipped_bytes) + " vs " +
                    std::to_string(b.shipped_bytes) + " B, PUTs " +
                    std::to_string(a.put_requests) + " vs " +
                    std::to_string(b.put_requests));
      }
    }
  }

  metrics["core.walk_vs_scheme"] = {walk_backup_s / scheme_wall_s[0],
                                    "ratio"};
  metrics["core.speedup_4v1"] = {scheme_wall_s[0] / scheme_wall_s[1], "ratio"};
  out.add(metrics);
}

// ------------------------------------------------------------------ driver

struct Options {
  std::string workload = "all";
  std::uint64_t seed = kShapeSeed;
  std::size_t min_reps = 3;
  double seconds = 10.0;
  bool layers = false;
  bool smoke = false;
  std::string out;
};

struct ModeResult {
  SampleSet samples;
  std::size_t reps = 0;
};

struct WorkloadResult {
  std::optional<ModeResult> e2e;
  std::optional<ModeResult> layers;
  Checks checks;
};

/// Run set-up several times (the median is setup_s), then reps until both
/// the minimum rep count and the time budget are reached.
ModeResult run_mode(const Workload& w, bool layers, const Options& opt,
                    HeapMeter& meter, Checks& checks) {
  ModeResult result;
  const int setups = opt.smoke ? 2 : 5;
  std::vector<dataset::Snapshot> input;
  History history;
  for (int i = 0; i < setups; ++i) {
    input.clear();
    history = History{};
    const StopWatch setup;
    if (w.kind == Kind::kRestore && !layers) {
      history = back_up_history(w, opt.seed, result.samples, checks);
    } else {
      input = make_input(w, opt.seed);
    }
    result.samples.add("setup_s", setup.seconds(), "s");
  }

  const StopWatch budget;
  while (result.reps < opt.min_reps || budget.seconds() < opt.seconds) {
    try {
      if (layers) {
        layer_rep(w, input, result.samples, checks);
      } else if (w.kind == Kind::kRestore) {
        restore_rep(history, meter, result.samples, checks);
      } else {
        backup_rep(w, input, meter, result.samples, checks);
      }
    } catch (const std::exception& e) {
      checks.fail(w.name + " rep " + std::to_string(result.reps) + ": " +
                  e.what());
    }
    ++result.reps;
  }
  return result;
}

telemetry::JsonValue mode_json(const ModeResult& mode) {
  telemetry::JsonValue out;
  out["reps"] = static_cast<std::uint64_t>(mode.reps);
  telemetry::JsonValue& metrics = out["metrics"].make_object();
  for (const auto& [name, series] : mode.samples.series()) {
    const Summary s = summarize(series.values);
    telemetry::JsonValue& m = metrics[name];
    m["unit"] = series.unit;
    m["median"] = s.median;
    m["q1"] = s.q1;
    m["q3"] = s.q3;
    telemetry::JsonValue& samples = m["samples"].make_array();
    for (const double v : series.values) samples.push_back(v);
  }
  return out;
}

void print_mode(const std::string& workload, const ModeResult& mode) {
  for (const auto& [name, series] : mode.samples.series()) {
    std::printf("%s %s %.9g %s\n", workload.c_str(), name.c_str(),
                summarize(series.values).median, series.unit.c_str());
  }
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--layers") {
      opt.layers = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--reps" ||
               arg == "--seconds" || arg == "--out") {
      const char* v = value();
      if (v == nullptr) return false;
      if (arg == "--workload") opt.workload = v;
      if (arg == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
      if (arg == "--reps") opt.min_reps = std::strtoull(v, nullptr, 10);
      if (arg == "--seconds") opt.seconds = std::strtod(v, nullptr);
      if (arg == "--out") opt.out = v;
    } else {
      return false;
    }
  }
  if (opt.smoke) {
    opt.min_reps = 2;
    opt.seconds = 0.0;
  }
  return !opt.out.empty() && opt.min_reps >= 1 && opt.seconds >= 0.0;
}

int run(const Options& opt) {
  std::vector<Workload> selected;
  for (Workload& w : all_workloads(opt.smoke)) {
    if (opt.workload == "all" || opt.workload == w.name) {
      selected.push_back(std::move(w));
    }
  }
  if (selected.empty()) {
    AAD_LOG(&log(), kError, "session", "unknown workload: %s",
            opt.workload.c_str());
    return 2;
  }

  HeapMeter meter;
  telemetry::JsonValue doc;
  doc["bench"] = "bench_session";
  telemetry::BuildInfo::current().fill_json(doc["build"]);
  doc["worker_threads"] = static_cast<std::uint64_t>(kWorkerThreads);
  doc["seed"] = opt.seed;
  doc["min_reps"] = static_cast<std::uint64_t>(opt.min_reps);
  doc["seconds"] = opt.seconds;
  doc["smoke"] = opt.smoke;
  doc["mode"] = opt.smoke ? "both" : opt.layers ? "layers" : "e2e";

  std::uint64_t attempted = 0, failed = 0;
  telemetry::JsonValue& workloads = doc["workloads"].make_object();
  for (const Workload& w : selected) {
    WorkloadResult result;
    if (opt.smoke || !opt.layers) {
      result.e2e = run_mode(w, false, opt, meter, result.checks);
    }
    if (opt.smoke || opt.layers) {
      result.layers = run_mode(w, true, opt, meter, result.checks);
    }
    const Checks& c = result.checks;
    const double failed_share = static_cast<double>(c.failed) /
                                static_cast<double>(c.attempted);
    telemetry::JsonValue& wj = workloads[w.name];
    if (result.e2e) {
      print_mode(w.name, *result.e2e);
      wj["e2e"] = mode_json(*result.e2e);
    }
    if (result.layers) {
      print_mode(w.name, *result.layers);
      wj["layers"] = mode_json(*result.layers);
    }
    std::printf("%s failed_op_share %.9g ratio\n", w.name.c_str(),
                failed_share);
    wj["attempted"] = c.attempted;
    wj["failed"] = c.failed;
    wj["failed_op_share"] = failed_share;
    attempted += c.attempted;
    failed += c.failed;
  }
  doc["attempted"] = attempted;
  doc["failed"] = failed;
  doc["correct"] = failed == 0;
  doc["peak_rss_mib"] = peak_rss_mib();

  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    AAD_LOG(&log(), kError, "session", "cannot write %s", opt.out.c_str());
    return 2;
  }
  const std::string text = doc.dump(2) + "\n";
  const bool written = std::fwrite(text.data(), 1, text.size(), f) ==
                       text.size();
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    AAD_LOG(&log(), kError, "session", "short write to %s", opt.out.c_str());
    return 2;
  }
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace aadedupe::bench_session

// Replaceable global allocation functions that keep the heap counters
// HeapMeter reads. Every other operator new/delete form in libstdc++
// (array, nothrow, sized) forwards to these two.
void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  using aadedupe::bench_session::g_heap_live;
  using aadedupe::bench_session::g_heap_peak;
  const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_heap_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = g_heap_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_heap_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  aadedupe::bench_session::g_heap_live.fetch_sub(
      static_cast<std::int64_t>(malloc_usable_size(p)),
      std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t /*size*/) noexcept {
  operator delete(p);
}

int main(int argc, char** argv) {
  // Keep freed memory in the process, as a long-running client's warm heap
  // does: no mmap-per-buffer and no trimming, so a timed unit is not
  // dominated by the kernel zero-filling pages the previous rep returned
  // (slow and noisy under a hypervisor). 32 MiB is glibc's largest mmap
  // threshold; every buffer the workloads allocate is smaller.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  using aadedupe::bench_session::Options;
  Options opt;
  if (!aadedupe::bench_session::parse_args(argc, argv, opt)) {
    AAD_LOG(&aadedupe::telemetry::stderr_logger(), kError, "session",
            "usage: bench_session --workload <name|all> [--seed n] "
            "[--reps k] [--seconds s] [--layers] [--smoke] --out <json>");
    return 2;
  }
  return aadedupe::bench_session::run(opt);
}
