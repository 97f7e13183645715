// Randomized property suite pinning the sharded join to the brute-force
// reference: it must emit ScoredPair vectors *byte-identical* to
// BruteForceSelfJoin / BruteForceBipartiteJoin — same pairs, same exact
// score doubles, same order — across corpora exercising the filter
// machinery's edge cases (empty docs, singletons, all-identical docs,
// heavy-tail token frequencies) at thresholds {0.3, 0.5, 0.7, 0.9}.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "simjoin/sharded_join.h"
#include "simjoin/similarity_join.h"
#include "simjoin/token_dictionary.h"
#include "tests/simjoin/join_test_corpus.h"

namespace crowdjoin {
namespace {

constexpr double kThresholds[] = {0.05, 0.08, 0.3, 0.5, 0.7, 0.9};

using join_testing::Corpus;
using join_testing::Jaccard;
using join_testing::JaccardDocs;

void AddDoc(Corpus& corpus, const std::vector<std::string>& tokens) {
  corpus.docs.push_back(corpus.dictionary.AddDocument(tokens));
}

// Uniform token draws plus deliberately empty and singleton documents.
Corpus MakeMixedCorpus(uint64_t seed, size_t num_docs) {
  Corpus corpus;
  Rng rng(seed);
  for (size_t d = 0; d < num_docs; ++d) {
    const size_t kind = rng.Index(8);
    size_t len;
    if (kind == 0) {
      len = 0;  // empty document
    } else if (kind == 1) {
      len = 1;  // singleton
    } else {
      len = 2 + rng.Index(10);
    }
    std::vector<std::string> tokens;
    for (size_t t = 0; t < len; ++t) {
      tokens.push_back(StrFormat(
          "w%llu", static_cast<unsigned long long>(rng.Index(70))));
    }
    AddDoc(corpus, tokens);
  }
  return corpus;
}

// Every document identical: the densest possible candidate graph, all
// scores exactly 1.0.
Corpus MakeAllIdenticalCorpus(size_t num_docs) {
  Corpus corpus;
  for (size_t d = 0; d < num_docs; ++d) {
    AddDoc(corpus, {"alpha", "beta", "gamma", "delta"});
  }
  return corpus;
}

// Zipf-distributed token frequencies: a few tokens appear in nearly every
// document (worthless prefixes, long postings lists), most appear once —
// the long-tail shape the positional filter exists for.
Corpus MakeHeavyTailCorpus(uint64_t seed, size_t num_docs) {
  Corpus corpus;
  Rng rng(seed);
  const ZipfSampler sampler(400, 1.2);
  for (size_t d = 0; d < num_docs; ++d) {
    const size_t len = 3 + rng.Index(10);
    std::vector<std::string> tokens;
    for (size_t t = 0; t < len; ++t) {
      tokens.push_back(StrFormat(
          "z%llu", static_cast<unsigned long long>(sampler.Sample(rng))));
    }
    AddDoc(corpus, tokens);
  }
  return corpus;
}

// Brute force scores two empty token sets as Jaccard 1.0, but the
// prefix-filter contract (PrefixLength in prefix_filter.h) is that empty
// documents take no part in any join. The reference adopts the contract:
// drop pairs with an empty side before comparing.
std::vector<ScoredPair> DropEmptyDocPairs(
    std::vector<ScoredPair> pairs,
    const std::vector<std::vector<int32_t>>& left,
    const std::vector<std::vector<int32_t>>& right) {
  pairs.erase(std::remove_if(pairs.begin(), pairs.end(),
                             [&](const ScoredPair& pair) {
                               return left[static_cast<size_t>(pair.left)]
                                          .empty() ||
                                      right[static_cast<size_t>(pair.right)]
                                          .empty();
                             }),
              pairs.end());
  return pairs;
}

void ExpectSelfJoinMatchesBruteForce(const Corpus& corpus,
                                     const char* label) {
  for (const double threshold : kThresholds) {
    const auto brute = DropEmptyDocPairs(
        BruteForceSelfJoin(corpus.docs, threshold), corpus.docs, corpus.docs);
    ShardedJoinOptions options;
    options.num_shards = 4;
    options.num_threads = 2;
    const auto sharded =
        ShardedMeasureSelfJoin(JaccardDocs(corpus.docs), corpus.dictionary,
                               Jaccard(), threshold, options)
            .value();
    EXPECT_EQ(sharded, brute)
        << label << " sharded, threshold=" << threshold;
  }
}

void ExpectBipartiteJoinMatchesBruteForce(const Corpus& corpus,
                                          const char* label) {
  const size_t half = corpus.docs.size() / 2;
  const std::vector<std::vector<int32_t>> left(corpus.docs.begin(),
                                               corpus.docs.begin() + half);
  const std::vector<std::vector<int32_t>> right(
      corpus.docs.begin() + half, corpus.docs.end());
  for (const double threshold : kThresholds) {
    const auto brute = DropEmptyDocPairs(
        BruteForceBipartiteJoin(left, right, threshold), left, right);
    ShardedJoinOptions options;
    options.num_shards = 3;
    options.num_threads = 2;
    const auto sharded =
        ShardedMeasureBipartiteJoin(JaccardDocs(left), JaccardDocs(right),
                                    corpus.dictionary, Jaccard(), threshold,
                                    options)
            .value();
    EXPECT_EQ(sharded, brute)
        << label << " sharded, threshold=" << threshold;
  }
}

class JoinEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinEquivalenceTest, MixedCorpusWithEmptyAndSingletonDocs) {
  const Corpus corpus = MakeMixedCorpus(GetParam(), /*num_docs=*/90);
  ExpectSelfJoinMatchesBruteForce(corpus, "mixed");
  ExpectBipartiteJoinMatchesBruteForce(corpus, "mixed");
}

TEST_P(JoinEquivalenceTest, HeavyTailTokenFrequencies) {
  const Corpus corpus = MakeHeavyTailCorpus(GetParam(), /*num_docs=*/80);
  ExpectSelfJoinMatchesBruteForce(corpus, "heavy-tail");
  ExpectBipartiteJoinMatchesBruteForce(corpus, "heavy-tail");
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, JoinEquivalenceTest,
                         ::testing::Range<uint64_t>(7100, 7108));

TEST(JoinEquivalence, AllIdenticalDocs) {
  const Corpus corpus = MakeAllIdenticalCorpus(/*num_docs=*/40);
  ExpectSelfJoinMatchesBruteForce(corpus, "all-identical");
  ExpectBipartiteJoinMatchesBruteForce(corpus, "all-identical");
}

TEST(JoinEquivalence, AllEmptyDocs) {
  Corpus corpus;
  corpus.docs.assign(12, {});
  ExpectSelfJoinMatchesBruteForce(corpus, "all-empty");
  ExpectBipartiteJoinMatchesBruteForce(corpus, "all-empty");
}

}  // namespace
}  // namespace crowdjoin
