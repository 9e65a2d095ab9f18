// Google-benchmark microbenchmarks for the three chunking engines.
#include <benchmark/benchmark.h>

#include "chunk/cdc_chunker.hpp"
#include "chunk/fastcdc_chunker.hpp"
#include "chunk/static_chunker.hpp"
#include "chunk/whole_file_chunker.hpp"
#include "util/rng.hpp"

namespace {

using namespace aadedupe;

ByteBuffer make_data(std::size_t size) {
  ByteBuffer data(size);
  Xoshiro256 rng(size + 7);
  rng.fill(data);
  return data;
}

void BM_WholeFileChunker(benchmark::State& state) {
  const ByteBuffer data = make_data(static_cast<std::size_t>(state.range(0)));
  const chunk::WholeFileChunker chunker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.split(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WholeFileChunker)->Arg(4 << 20);

void BM_StaticChunker(benchmark::State& state) {
  const ByteBuffer data = make_data(static_cast<std::size_t>(state.range(0)));
  const chunk::StaticChunker chunker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.split(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StaticChunker)->Arg(4 << 20);

void BM_CdcChunker(benchmark::State& state) {
  const ByteBuffer data = make_data(static_cast<std::size_t>(state.range(0)));
  const chunk::CdcChunker chunker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.split(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CdcChunker)->Arg(4 << 20);

void BM_FastCdcChunker(benchmark::State& state) {
  const ByteBuffer data = make_data(static_cast<std::size_t>(state.range(0)));
  const chunk::FastCdcChunker chunker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.split(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FastCdcChunker)->Arg(4 << 20);

void BM_CdcChunkerZeros(benchmark::State& state) {
  // Zero-filled input: no boundary pattern matches, max-size cuts — the
  // VM-image sparse-region path.
  const ByteBuffer data(static_cast<std::size_t>(state.range(0)),
                        std::byte{0});
  const chunk::CdcChunker chunker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.split(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CdcChunkerZeros)->Arg(4 << 20);

}  // namespace

BENCHMARK_MAIN();
