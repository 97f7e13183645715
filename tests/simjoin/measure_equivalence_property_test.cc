// Randomized property suite pinning the measure-generic sharded join to
// the brute-force reference: for every measure (Jaccard, edit distance,
// TF-IDF cosine), at shard counts {1, 4, 3, 5} x thread counts {1, 2, 4,
// 8}, it must emit ScoredPair vectors *byte-identical* to
// BruteForceMeasureSelfJoin / BruteForceMeasureBipartiteJoin: same pairs,
// same exact score doubles, same order. The corpora exercise each
// measure's filter edge cases: empty and whitespace-only texts,
// singletons, all-identical docs, near-duplicate strings a few character
// edits apart (the edit measure's q-gram filter), very short strings at
// low thresholds (the edit measure's fallback bucket, where qualifying
// pairs can share zero grams), and heavy-tail token frequencies (weighted
// cosine prefixes).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "simjoin/sharded_join.h"
#include "simjoin/similarity_join.h"
#include "simjoin/similarity_measure.h"
#include "simjoin/token_dictionary.h"

namespace crowdjoin {
namespace {

constexpr double kThresholds[] = {0.05, 0.08, 0.3, 0.5, 0.7, 0.9};

// Shard x thread grids the sharded path must reproduce byte-identically.
constexpr std::pair<int, int> kShardingGrid[] = {
    {1, 1}, {4, 2}, {3, 4}, {5, 8}};

std::vector<const SimilarityMeasure*> AllMeasures() {
  return {&SimilarityMeasure::Jaccard(), &SimilarityMeasure::EditDistance(),
          &SimilarityMeasure::CosineTfIdf()};
}

struct MeasureCorpus {
  TokenDictionary dictionary;
  std::vector<MeasureDoc> docs;
};

MeasureCorpus BuildCorpus(const std::vector<std::string>& texts,
                          const SimilarityMeasure& measure) {
  MeasureCorpus corpus;
  for (const std::string& text : texts) {
    corpus.docs.push_back(measure.MakeDoc(text, corpus.dictionary));
  }
  return corpus;
}

std::string RandomWord(Rng& rng, size_t vocab) {
  return StrFormat("w%llu", static_cast<unsigned long long>(rng.Index(vocab)));
}

// Word soups plus deliberately empty, whitespace-only, and one-word texts.
std::vector<std::string> MakeMixedTexts(uint64_t seed, size_t num_docs) {
  Rng rng(seed);
  std::vector<std::string> texts;
  for (size_t d = 0; d < num_docs; ++d) {
    const size_t kind = rng.Index(8);
    if (kind == 0) {
      texts.push_back("");
    } else if (kind == 1) {
      texts.push_back("  \t  ");  // whitespace-only: normalizes to empty
    } else if (kind == 2) {
      texts.push_back(RandomWord(rng, 70));  // singleton
    } else {
      std::string text;
      const size_t len = 2 + rng.Index(8);
      for (size_t t = 0; t < len; ++t) {
        text += RandomWord(rng, 70);
        text += ' ';
      }
      texts.push_back(text);
    }
  }
  return texts;
}

// Base phrases perturbed by a handful of character edits — near-duplicate
// clusters sitting right at the edit measure's decision boundary.
std::vector<std::string> MakeNearDuplicateTexts(uint64_t seed,
                                                size_t num_docs) {
  Rng rng(seed);
  const std::vector<std::string> bases = {
      "apple macbook pro thirteen inch",
      "apple macbook pro fifteen inch",
      "canon powershot digital camera",
      "nikon coolpix digital camera",
      "sony vaio laptop computer black",
      "logitech wireless mouse m310",
  };
  std::vector<std::string> texts;
  for (size_t d = 0; d < num_docs; ++d) {
    std::string text = bases[rng.Index(bases.size())];
    const size_t edits = rng.Index(4);
    for (size_t e = 0; e < edits && !text.empty(); ++e) {
      const size_t pos = rng.Index(text.size());
      const char letter = static_cast<char>('a' + rng.Index(26));
      switch (rng.Index(3)) {
        case 0:
          text[pos] = letter;  // substitute
          break;
        case 1:
          text.erase(pos, 1);  // delete
          break;
        default:
          text.insert(pos, 1, letter);  // insert
          break;
      }
    }
    texts.push_back(text);
  }
  return texts;
}

// Very short strings at low thresholds: the edit measure's q-gram prefix
// cannot filter these (q * max-edits >= gram count), so completeness rides
// entirely on the fallback bucket — qualifying pairs here can share zero
// grams.
std::vector<std::string> MakeShortStringTexts(uint64_t seed,
                                              size_t num_docs) {
  Rng rng(seed);
  std::vector<std::string> texts;
  for (size_t d = 0; d < num_docs; ++d) {
    const size_t len = rng.Index(5);  // 0..4 characters
    std::string text;
    for (size_t c = 0; c < len; ++c) {
      text += static_cast<char>('a' + rng.Index(6));
    }
    texts.push_back(text);
  }
  return texts;
}

// Zipf-distributed word frequencies: a few words appear nearly everywhere
// (tiny idf weights, worthless prefixes), most appear once — the shape the
// cosine measure's weighted prefix exists for.
std::vector<std::string> MakeHeavyTailTexts(uint64_t seed, size_t num_docs) {
  Rng rng(seed);
  const ZipfSampler sampler(400, 1.2);
  std::vector<std::string> texts;
  for (size_t d = 0; d < num_docs; ++d) {
    const size_t len = 3 + rng.Index(10);
    std::string text;
    for (size_t t = 0; t < len; ++t) {
      text += StrFormat("z%llu ",
                        static_cast<unsigned long long>(sampler.Sample(rng)));
    }
    texts.push_back(text);
  }
  return texts;
}

void ExpectSelfJoinsMatchBruteForce(const std::vector<std::string>& texts,
                                    const char* label) {
  for (const SimilarityMeasure* measure : AllMeasures()) {
    const MeasureCorpus corpus = BuildCorpus(texts, *measure);
    for (const double threshold : kThresholds) {
      const auto brute = BruteForceMeasureSelfJoin(
          corpus.docs, corpus.dictionary, *measure, threshold);
      for (const auto& [shards, threads] : kShardingGrid) {
        ShardedJoinOptions options;
        options.num_shards = shards;
        options.num_threads = threads;
        const auto sharded =
            ShardedMeasureSelfJoin(corpus.docs, corpus.dictionary, *measure,
                                   threshold, options)
                .value();
        EXPECT_EQ(sharded, brute)
            << label << " sharded, measure=" << measure->name()
            << ", threshold=" << threshold << ", shards=" << shards
            << ", threads=" << threads;
      }
    }
  }
}

void ExpectBipartiteJoinsMatchBruteForce(const std::vector<std::string>& texts,
                                         const char* label) {
  for (const SimilarityMeasure* measure : AllMeasures()) {
    const MeasureCorpus corpus = BuildCorpus(texts, *measure);
    const size_t half = corpus.docs.size() / 2;
    const std::vector<MeasureDoc> left(corpus.docs.begin(),
                                       corpus.docs.begin() + half);
    const std::vector<MeasureDoc> right(corpus.docs.begin() + half,
                                        corpus.docs.end());
    for (const double threshold : kThresholds) {
      const auto brute = BruteForceMeasureBipartiteJoin(
          left, right, corpus.dictionary, *measure, threshold);
      for (const auto& [shards, threads] : kShardingGrid) {
        ShardedJoinOptions options;
        options.num_shards = shards;
        options.num_threads = threads;
        const auto sharded =
            ShardedMeasureBipartiteJoin(left, right, corpus.dictionary,
                                        *measure, threshold, options)
                .value();
        EXPECT_EQ(sharded, brute)
            << label << " sharded, measure=" << measure->name()
            << ", threshold=" << threshold << ", shards=" << shards
            << ", threads=" << threads;
      }
    }
  }
}

class MeasureEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MeasureEquivalenceTest, MixedTextsWithEmptyAndSingletonDocs) {
  const auto texts = MakeMixedTexts(GetParam(), /*num_docs=*/70);
  ExpectSelfJoinsMatchBruteForce(texts, "mixed");
  ExpectBipartiteJoinsMatchBruteForce(texts, "mixed");
}

TEST_P(MeasureEquivalenceTest, NearDuplicateStrings) {
  const auto texts = MakeNearDuplicateTexts(GetParam(), /*num_docs=*/60);
  ExpectSelfJoinsMatchBruteForce(texts, "near-duplicate");
  ExpectBipartiteJoinsMatchBruteForce(texts, "near-duplicate");
}

TEST_P(MeasureEquivalenceTest, ShortStringsExerciseFallbackBucket) {
  const auto texts = MakeShortStringTexts(GetParam(), /*num_docs=*/60);
  ExpectSelfJoinsMatchBruteForce(texts, "short-strings");
  ExpectBipartiteJoinsMatchBruteForce(texts, "short-strings");
}

TEST_P(MeasureEquivalenceTest, HeavyTailTokenFrequencies) {
  const auto texts = MakeHeavyTailTexts(GetParam(), /*num_docs=*/60);
  ExpectSelfJoinsMatchBruteForce(texts, "heavy-tail");
  ExpectBipartiteJoinsMatchBruteForce(texts, "heavy-tail");
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MeasureEquivalenceTest,
                         ::testing::Range<uint64_t>(9200, 9206));

TEST(MeasureEquivalence, AllIdenticalDocs) {
  const std::vector<std::string> texts(
      30, "alpha beta gamma delta identical record");
  ExpectSelfJoinsMatchBruteForce(texts, "all-identical");
  ExpectBipartiteJoinsMatchBruteForce(texts, "all-identical");
}

TEST(MeasureEquivalence, AllEmptyDocs) {
  std::vector<std::string> texts(12);
  for (size_t i = 0; i < texts.size(); i += 2) texts[i] = " \t ";
  ExpectSelfJoinsMatchBruteForce(texts, "all-empty");
  ExpectBipartiteJoinsMatchBruteForce(texts, "all-empty");
}

}  // namespace
}  // namespace crowdjoin
