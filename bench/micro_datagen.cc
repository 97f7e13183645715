// Microbenchmark for synthetic record generation, single-threaded: one
// paper-scale block of each dataset (a 1x stream generates its one block
// inline on the caller's thread) and the word-level text corruption every
// non-canonical record goes through. The streaming datagen pass of every
// scale-factor workload is this block function run once per block on the
// generator pool, so its per-record cost bounds the pass.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "datagen/paper_dataset.h"
#include "datagen/perturb.h"
#include "datagen/product_dataset.h"
#include "datagen/record_source.h"
#include "datagen/streaming_generator.h"

namespace crowdjoin {
namespace {

// Rewinds `source` and drains its single block; returns the byte count so
// the work cannot be optimized away.
int64_t DrainBlock(RecordSource& source) {
  source.Reset();
  StreamedRecord record;
  int64_t bytes = 0;
  while (source.Next(&record)) {
    for (const std::string& field : record.record.fields) {
      bytes += static_cast<int64_t>(field.size());
    }
  }
  return bytes;
}

void BM_PaperBlock(benchmark::State& state) {
  PaperDatasetConfig config;
  config.seed = 42;
  StreamingPaperSource source(config, /*scale_factor=*/1);
  for (auto _ : state) benchmark::DoNotOptimize(DrainBlock(source));
  state.SetItemsProcessed(state.iterations() *
                          config.clusters.total_records);
}
BENCHMARK(BM_PaperBlock)->Unit(benchmark::kMicrosecond);

void BM_ProductBlock(benchmark::State& state) {
  ProductDatasetConfig config;
  config.seed = 42;
  StreamingProductSource source(config, /*scale_factor=*/1);
  for (auto _ : state) benchmark::DoNotOptimize(DrainBlock(source));
  state.SetItemsProcessed(state.iterations() *
                          config.clusters.total_records);
}
BENCHMARK(BM_ProductBlock)->Unit(benchmark::kMicrosecond);

// One paper-title-length text through the default corruption rates, the
// hot call of every non-canonical title.
void BM_CorruptText(benchmark::State& state) {
  constexpr std::string_view kTitle =
      "efficient kovemu entity resolution over distributed data streams";
  Rng rng(7);
  Corruptor corruptor(CorruptionConfig{}, &rng);
  std::string out;
  for (auto _ : state) {
    out.clear();
    corruptor.CorruptText(kTitle, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CorruptText);

}  // namespace
}  // namespace crowdjoin

BENCHMARK_MAIN();
