// Microbenchmark + ablation: sharded prefix-filter similarity join vs
// brute-force all-pairs verification — the machine step's cost profile across
// thresholds (higher thresholds prune better) — plus the whole machine step
// on the paper workbench and its scoring kernel.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "datagen/paper_dataset.h"
#include "eval/workbench.h"
#include "simjoin/candidate_generator.h"
#include "simjoin/sharded_join.h"
#include "simjoin/similarity_join.h"
#include "simjoin/similarity_measure.h"
#include "simjoin/token_dictionary.h"
#include "text/record_similarity.h"

namespace crowdjoin {
namespace {

struct Corpus {
  TokenDictionary dictionary;
  std::vector<std::vector<int32_t>> docs;
};

Corpus MakeCorpus(size_t num_docs, size_t tokens_per_doc, size_t vocabulary) {
  Corpus corpus;
  Rng rng(7);
  const ZipfSampler sampler(vocabulary, 1.1);
  for (size_t d = 0; d < num_docs; ++d) {
    std::vector<std::string> tokens;
    for (size_t t = 0; t < tokens_per_doc; ++t) {
      tokens.push_back(StrFormat("tok%llu",
                                 static_cast<unsigned long long>(
                                     sampler.Sample(rng))));
    }
    corpus.docs.push_back(corpus.dictionary.AddDocument(tokens));
  }
  return corpus;
}

void BM_BruteForceSelfJoin(benchmark::State& state) {
  const auto num_docs = static_cast<size_t>(state.range(0));
  const double threshold = static_cast<double>(state.range(1)) / 10.0;
  Corpus corpus = MakeCorpus(num_docs, 12, 4096);
  for (auto _ : state) {
    auto result = BruteForceSelfJoin(corpus.docs, threshold);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_docs));
}
BENCHMARK(BM_BruteForceSelfJoin)->Args({1000, 5})->Args({1000, 8});

// The sharded parallel join at {num_docs, threshold*10, threads}: the
// corpus is ingested once as Jaccard measure documents, each iteration
// re-runs the prepare + probe phases over a persistent pool (threads=0 runs
// inline; byte-identical output to BM_BruteForceSelfJoin's at every thread
// count).
void BM_ShardedSelfJoin(benchmark::State& state) {
  const auto num_docs = static_cast<size_t>(state.range(0));
  const double threshold = static_cast<double>(state.range(1)) / 10.0;
  const int num_threads = static_cast<int>(state.range(2));
  Corpus corpus = MakeCorpus(num_docs, 12, 4096);
  ShardedSelfJoiner joiner(/*num_shards=*/16);
  for (const auto& doc : corpus.docs) {
    joiner.Add(MeasureDoc{doc, static_cast<int32_t>(doc.size()), {}});
  }
  ThreadPool pool(num_threads);
  ThreadPool* pool_ptr = pool.num_threads() > 0 ? &pool : nullptr;
  for (auto _ : state) {
    auto result = joiner.Finish(corpus.dictionary,
                                SimilarityMeasure::Jaccard(), threshold,
                                pool_ptr);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_docs));
}
BENCHMARK(BM_ShardedSelfJoin)
    ->Args({1000, 3, 0})
    ->Args({1000, 5, 0})
    ->Args({1000, 8, 0})
    ->Args({4000, 5, 0})
    ->Args({4000, 5, 2})
    ->Args({4000, 5, 4})
    ->Args({4000, 5, 8})
    ->Args({4000, 8, 0})
    ->Args({4000, 8, 4});

// The machine step every figure harness starts from: `GenerateCandidates`
// on the seed-42 paper workbench (997 records, `WorkbenchGeneratorOptions`),
// joined and scored on the shared pool. Datagen and the scorer's tf-idf fit
// happen once, outside the loop.
void BM_PaperWorkbenchCandidates(benchmark::State& state) {
  constexpr uint64_t kSeed = 42;
  PaperDatasetConfig config;
  config.seed = kSeed;
  const Dataset dataset = GeneratePaperDataset(config).value();
  RecordScorer scorer = MakePaperScorer();
  scorer.FitTfIdf(dataset.records);
  const CandidateGeneratorOptions options = WorkbenchGeneratorOptions(kSeed);
  for (auto _ : state) {
    auto candidates =
        GenerateCandidates(dataset.records, nullptr, scorer, options);
    benchmark::DoNotOptimize(candidates);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.records.size()));
}
BENCHMARK(BM_PaperWorkbenchCandidates)->Unit(benchmark::kMillisecond);

// The join of the machine step alone: the seed-42 paper workbench's
// documents (ingested once, outside the loop) self-joined at its token
// threshold (t = 0.08), inline (arg 0) or on the shared pool (arg 1), as
// `GenerateCandidates` runs it: prepare, probe, and the per-run sorts into
// sorted runs, unmerged.
void BM_PaperWorkbenchJoin(benchmark::State& state) {
  constexpr uint64_t kSeed = 42;
  PaperDatasetConfig config;
  config.seed = kSeed;
  const Dataset dataset = GeneratePaperDataset(config).value();
  const SimilarityMeasure& measure =
      SimilarityMeasure::Get(MeasureKind::kJaccard);
  TokenDictionary dictionary;
  ShardedSelfJoiner joiner;
  for (const Record& record : dataset.records) {
    std::string text;
    for (const std::string& field : record.fields) text += field + ' ';
    joiner.Add(measure.MakeDoc(text, dictionary));
  }
  const double threshold =
      WorkbenchGeneratorOptions(kSeed).token_join_threshold;
  ThreadPool* pool = state.range(0) != 0 ? &SharedPool() : nullptr;
  for (auto _ : state) {
    ShardedJoinCursor cursor =
        joiner.MakeCursor(dictionary, measure, threshold, pool).value();
    auto runs = cursor.NextBatchRuns(cursor.num_tasks(), pool);
    benchmark::DoNotOptimize(runs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.records.size()));
}
BENCHMARK(BM_PaperWorkbenchJoin)
    ->ArgName("pooled")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The scoring kernel of the machine step: the seed-42 paper workbench's
// joined pairs (t = 0.08, in join order) scored one thread, per pair
// through `PreparedRecords::Score` (arg 0) or through one
// `PreparedRecords::RowCursor` (arg 1), which marks each left record's sets
// once per row. Both give bit-identical scores.
void BM_PaperWorkbenchScore(benchmark::State& state) {
  constexpr uint64_t kSeed = 42;
  PaperDatasetConfig config;
  config.seed = kSeed;
  const Dataset dataset = GeneratePaperDataset(config).value();
  const SimilarityMeasure& measure =
      SimilarityMeasure::Get(MeasureKind::kJaccard);
  TokenDictionary dictionary;
  std::vector<MeasureDoc> docs;
  for (const Record& record : dataset.records) {
    std::string text;
    for (const std::string& field : record.fields) text += field + ' ';
    docs.push_back(measure.MakeDoc(text, dictionary));
  }
  const std::vector<ScoredPair> joined =
      ShardedMeasureSelfJoin(docs, dictionary, measure,
                             WorkbenchGeneratorOptions(kSeed)
                                 .token_join_threshold,
                             ShardedJoinOptions())
          .value();
  const PreparedRecords prepared =
      MakePaperScorer().Prepare(dataset.records).value();
  const bool row_cursor = state.range(0) != 0;
  for (auto _ : state) {
    PreparedRecords::RowCursor cursor(prepared);
    double sum = 0.0;
    for (const ScoredPair& pair : joined) {
      const auto i = static_cast<size_t>(pair.left);
      const auto j = static_cast<size_t>(pair.right);
      sum += (row_cursor ? cursor.Score(i, j) : prepared.Score(i, j)).value();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(joined.size()));
}
BENCHMARK(BM_PaperWorkbenchScore)
    ->ArgName("row_cursor")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace crowdjoin

BENCHMARK_MAIN();
