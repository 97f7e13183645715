// Microbenchmark: the measure-generic join across the three similarity
// measures — what does swapping Jaccard for edit distance or TF-IDF
// cosine cost at the same corpus and threshold? Covers the sharded join
// per measure, inline and on a pool, and the measures' verifiers in
// isolation (the filter/verify split differs per measure: edit verifies
// with a banded DP over payloads, cosine's "verify" is the exact weighted
// dot product).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "simjoin/sharded_join.h"
#include "simjoin/similarity_measure.h"
#include "simjoin/token_dictionary.h"
#include "text/edit_distance.h"

namespace crowdjoin {
namespace {

// Zipf-token texts with light character noise: realistic for all three
// measures (shared rare tokens for Jaccard/cosine, near-duplicates a few
// character edits apart for the edit measure).
std::vector<std::string> MakeTexts(size_t num_docs, size_t tokens_per_doc,
                                   size_t vocabulary) {
  Rng rng(7);
  const ZipfSampler sampler(vocabulary, 1.1);
  std::vector<std::string> texts;
  for (size_t d = 0; d < num_docs; ++d) {
    std::string text;
    for (size_t t = 0; t < tokens_per_doc; ++t) {
      text += StrFormat("tok%llu ", static_cast<unsigned long long>(
                                        sampler.Sample(rng)));
    }
    if (!text.empty() && rng.Bernoulli(0.3)) {
      text[rng.Index(text.size())] = static_cast<char>('a' + rng.Index(26));
    }
    texts.push_back(text);
  }
  return texts;
}

struct MeasureCorpus {
  TokenDictionary dictionary;
  std::vector<MeasureDoc> docs;
};

MeasureCorpus MakeCorpus(const SimilarityMeasure& measure, size_t num_docs,
                         size_t tokens_per_doc) {
  MeasureCorpus corpus;
  for (const std::string& text : MakeTexts(num_docs, tokens_per_doc, 4096)) {
    corpus.docs.push_back(measure.MakeDoc(text, corpus.dictionary));
  }
  return corpus;
}

const SimilarityMeasure& MeasureForRange(int64_t kind) {
  return SimilarityMeasure::Get(static_cast<MeasureKind>(kind));
}

// {measure kind, num_docs, threshold*10, threads}: sharded join, ingest
// once, re-run prepare + probe each iteration; threads=0 runs inline.
void BM_ShardedMeasureSelfJoin(benchmark::State& state) {
  const SimilarityMeasure& measure = MeasureForRange(state.range(0));
  const auto num_docs = static_cast<size_t>(state.range(1));
  const double threshold = static_cast<double>(state.range(2)) / 10.0;
  const int num_threads = static_cast<int>(state.range(3));
  MeasureCorpus corpus = MakeCorpus(measure, num_docs, 12);
  ShardedSelfJoiner joiner(/*num_shards=*/16);
  for (const MeasureDoc& doc : corpus.docs) joiner.Add(doc);
  ThreadPool pool(num_threads);
  ThreadPool* pool_ptr = pool.num_threads() > 0 ? &pool : nullptr;
  for (auto _ : state) {
    auto result =
        joiner.Finish(corpus.dictionary, measure, threshold, pool_ptr);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(measure.name());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_docs));
}
// The edit rows stay at tight thresholds and the small corpus: a q-gram
// edit join at a permissive threshold over long texts degenerates toward
// all-pairs banded-DP verification (~5 s at {1000 docs, t=0.5} on the
// reference box) — that cost cliff is recorded once in BASELINES.md
// rather than re-measured on every CI run.
BENCHMARK(BM_ShardedMeasureSelfJoin)
    ->Args({0, 1000, 5, 0})
    ->Args({2, 1000, 5, 0})
    ->Args({0, 1000, 8, 0})
    ->Args({1, 1000, 8, 0})
    ->Args({2, 1000, 8, 0})
    ->Args({1, 1000, 9, 0})
    ->Args({0, 4000, 8, 0})
    ->Args({2, 4000, 8, 0})
    ->Args({0, 4000, 8, 4})
    ->Args({1, 1000, 9, 4})
    ->Args({2, 4000, 8, 4})
    ->Args({0, 4000, 8, 8})
    ->Args({1, 1000, 9, 8})
    ->Args({2, 4000, 8, 8});

// The edit measure's verifier: banded DP with the budget the threshold
// implies, vs the full unbounded DP it replaces. {string length,
// threshold*10} — the band narrows as the threshold rises.
void BM_BoundedLevenshteinVerify(benchmark::State& state) {
  const auto length = static_cast<size_t>(state.range(0));
  const double threshold = static_cast<double>(state.range(1)) / 10.0;
  const size_t budget =
      static_cast<size_t>((1.0 - threshold) * static_cast<double>(length));
  Rng rng(11);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int p = 0; p < 64; ++p) {
    std::string a, b;
    for (size_t i = 0; i < length; ++i) {
      const char c = static_cast<char>('a' + rng.Index(8));
      a += c;
      b += rng.Bernoulli(0.1) ? static_cast<char>('a' + rng.Index(8)) : c;
    }
    pairs.emplace_back(a, b);
  }
  for (auto _ : state) {
    size_t total = 0;
    for (const auto& [a, b] : pairs) total += BoundedLevenshtein(a, b, budget);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_BoundedLevenshteinVerify)
    ->Args({40, 5})
    ->Args({40, 8})
    ->Args({160, 5})
    ->Args({160, 8});

void BM_UnboundedLevenshtein(benchmark::State& state) {
  const auto length = static_cast<size_t>(state.range(0));
  Rng rng(11);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int p = 0; p < 64; ++p) {
    std::string a, b;
    for (size_t i = 0; i < length; ++i) {
      const char c = static_cast<char>('a' + rng.Index(8));
      a += c;
      b += rng.Bernoulli(0.1) ? static_cast<char>('a' + rng.Index(8)) : c;
    }
    pairs.emplace_back(a, b);
  }
  for (auto _ : state) {
    size_t total = 0;
    for (const auto& [a, b] : pairs) total += LevenshteinDistance(a, b);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_UnboundedLevenshtein)->Args({40, 0})->Args({160, 0});

}  // namespace
}  // namespace crowdjoin

BENCHMARK_MAIN();
