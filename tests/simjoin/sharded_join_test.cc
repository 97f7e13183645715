#include "simjoin/sharded_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "simjoin/similarity_join.h"
#include "tests/simjoin/join_test_corpus.h"

namespace crowdjoin {
namespace {

using join_testing::Corpus;
using join_testing::Jaccard;
using join_testing::JaccardDocs;
using join_testing::MakeRandomCorpus;

// The acceptance matrix: ScoredPair output (pairs, scores, order)
// byte-identical to the sequential brute-force join at every tested
// (threads, shards, threshold) combination.
constexpr int kThreadCounts[] = {0, 1, 2, 4, 8};
constexpr int kShardCounts[] = {1, 2, 3, 7, 16};
constexpr double kThresholds[] = {0.3, 0.5, 0.8, 1.0};

TEST(ShardedSelfJoin, ByteIdenticalToSequentialAcrossMatrix) {
  const Corpus corpus = MakeRandomCorpus(/*seed=*/901, /*num_docs=*/160,
                                         /*vocabulary=*/70, 2, 12);
  const std::vector<MeasureDoc> docs = JaccardDocs(corpus.docs);
  for (double threshold : kThresholds) {
    const auto expected = BruteForceSelfJoin(corpus.docs, threshold);
    for (int shards : kShardCounts) {
      for (int threads : kThreadCounts) {
        ShardedJoinOptions options;
        options.num_shards = shards;
        options.num_threads = threads;
        const auto sharded =
            ShardedMeasureSelfJoin(docs, corpus.dictionary, Jaccard(),
                                   threshold, options)
                .value();
        ASSERT_EQ(sharded, expected)
            << "threshold=" << threshold << " shards=" << shards
            << " threads=" << threads;
      }
    }
  }
}

TEST(ShardedBipartiteJoin, ByteIdenticalToSequentialAcrossMatrix) {
  const Corpus corpus = MakeRandomCorpus(/*seed=*/902, /*num_docs=*/180,
                                         /*vocabulary=*/60, 2, 10);
  const std::vector<std::vector<int32_t>> left(corpus.docs.begin(),
                                               corpus.docs.begin() + 70);
  const std::vector<std::vector<int32_t>> right(corpus.docs.begin() + 70,
                                                corpus.docs.end());
  for (double threshold : kThresholds) {
    const auto expected = BruteForceBipartiteJoin(left, right, threshold);
    for (int shards : kShardCounts) {
      for (int threads : kThreadCounts) {
        ShardedJoinOptions options;
        options.num_shards = shards;
        options.num_threads = threads;
        const auto sharded =
            ShardedMeasureBipartiteJoin(JaccardDocs(left), JaccardDocs(right),
                                        corpus.dictionary, Jaccard(),
                                        threshold, options)
                .value();
        ASSERT_EQ(sharded, expected)
            << "threshold=" << threshold << " shards=" << shards
            << " threads=" << threads;
      }
    }
  }
}

TEST(ShardedSelfJoin, MatchesBruteForceOnRandomSeeds) {
  for (uint64_t seed = 950; seed < 955; ++seed) {
    const Corpus corpus =
        MakeRandomCorpus(seed, /*num_docs=*/90, /*vocabulary=*/40, 3, 9);
    for (double threshold : {0.4, 0.7}) {
      ShardedJoinOptions options;
      options.num_shards = 5;
      options.num_threads = 2;
      const auto sharded =
          ShardedMeasureSelfJoin(JaccardDocs(corpus.docs), corpus.dictionary,
                                 Jaccard(), threshold, options)
              .value();
      EXPECT_EQ(sharded, BruteForceSelfJoin(corpus.docs, threshold))
          << "seed=" << seed << " threshold=" << threshold;
    }
  }
}

TEST(ShardedSelfJoin, TinyHandCase) {
  TokenDictionary dict;
  std::vector<std::vector<int32_t>> docs;
  docs.push_back(dict.AddDocument({"a", "b", "c"}));
  docs.push_back(dict.AddDocument({"a", "b", "d"}));
  docs.push_back(dict.AddDocument({"x", "y"}));
  const auto result =
      ShardedMeasureSelfJoin(JaccardDocs(docs), dict, Jaccard(), 0.5, {})
          .value();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].left, 0);
  EXPECT_EQ(result[0].right, 1);
  EXPECT_DOUBLE_EQ(result[0].score, 0.5);
}

TEST(ShardedSelfJoin, ThresholdOneFindsDuplicatesOnly) {
  TokenDictionary dict;
  std::vector<std::vector<int32_t>> docs;
  docs.push_back(dict.AddDocument({"a", "b"}));
  docs.push_back(dict.AddDocument({"a", "b"}));
  docs.push_back(dict.AddDocument({"a", "c"}));
  const auto result =
      ShardedMeasureSelfJoin(JaccardDocs(docs), dict, Jaccard(), 1.0, {})
          .value();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].left, 0);
  EXPECT_EQ(result[0].right, 1);
}

class SelfJoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SelfJoinPropertyTest, MatchesBruteForceAcrossThresholds) {
  const Corpus corpus = MakeRandomCorpus(GetParam(), /*num_docs=*/80,
                                         /*vocabulary=*/60, 3, 12);
  for (double threshold : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    EXPECT_EQ(ShardedMeasureSelfJoin(JaccardDocs(corpus.docs),
                                     corpus.dictionary, Jaccard(), threshold,
                                     {})
                  .value(),
              BruteForceSelfJoin(corpus.docs, threshold))
        << "seed=" << GetParam() << " threshold=" << threshold;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SelfJoinPropertyTest,
                         ::testing::Range<uint64_t>(600, 610));

class BipartiteJoinPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(BipartiteJoinPropertyTest, MatchesBruteForceAcrossThresholds) {
  const Corpus corpus = MakeRandomCorpus(GetParam(), /*num_docs=*/100,
                                         /*vocabulary=*/50, 2, 10);
  const std::vector<std::vector<int32_t>> left(corpus.docs.begin(),
                                               corpus.docs.begin() + 40);
  const std::vector<std::vector<int32_t>> right(corpus.docs.begin() + 40,
                                                corpus.docs.end());
  for (double threshold : {0.3, 0.5, 0.7, 1.0}) {
    EXPECT_EQ(ShardedMeasureBipartiteJoin(JaccardDocs(left),
                                          JaccardDocs(right),
                                          corpus.dictionary, Jaccard(),
                                          threshold, {})
                  .value(),
              BruteForceBipartiteJoin(left, right, threshold))
        << "seed=" << GetParam() << " threshold=" << threshold;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, BipartiteJoinPropertyTest,
                         ::testing::Range<uint64_t>(700, 710));

TEST(ShardedSelfJoiner, StreamingIngestMatchesBulkWrapper) {
  const Corpus corpus = MakeRandomCorpus(/*seed=*/903, /*num_docs=*/120,
                                         /*vocabulary=*/50, 2, 10);
  const std::vector<MeasureDoc> docs = JaccardDocs(corpus.docs);
  ShardedSelfJoiner joiner(/*num_shards=*/4);
  for (const MeasureDoc& doc : docs) joiner.Add(doc);
  EXPECT_EQ(joiner.num_docs(), 120);
  ThreadPool pool(3);
  const auto streamed =
      joiner.Finish(corpus.dictionary, Jaccard(), 0.5, &pool).value();
  ShardedJoinOptions options;
  options.num_shards = 4;
  const auto bulk = ShardedMeasureSelfJoin(docs, corpus.dictionary,
                                           Jaccard(), 0.5, options)
                        .value();
  EXPECT_EQ(streamed, bulk);
}

TEST(ShardedSelfJoiner, FinishIsRepeatableAtMultipleThresholds) {
  const Corpus corpus = MakeRandomCorpus(/*seed=*/904, /*num_docs=*/80,
                                         /*vocabulary=*/40, 2, 8);
  ShardedSelfJoiner joiner(/*num_shards=*/3);
  for (const MeasureDoc& doc : JaccardDocs(corpus.docs)) joiner.Add(doc);
  for (double threshold : {0.3, 0.6, 0.9}) {
    const auto first =
        joiner.Finish(corpus.dictionary, Jaccard(), threshold, nullptr)
            .value();
    const auto second =
        joiner.Finish(corpus.dictionary, Jaccard(), threshold, nullptr)
            .value();
    EXPECT_EQ(first, second) << "threshold=" << threshold;
    EXPECT_EQ(first, BruteForceSelfJoin(corpus.docs, threshold))
        << "threshold=" << threshold;
  }
}

TEST(ShardedSelfJoiner, BipartiteJoinWithItselfIsRejected) {
  const Corpus corpus = MakeRandomCorpus(/*seed=*/905, /*num_docs=*/40,
                                         /*vocabulary=*/30, 2, 8);
  ShardedSelfJoiner joiner(/*num_shards=*/3);
  for (const MeasureDoc& doc : JaccardDocs(corpus.docs)) joiner.Add(doc);
  // Joined with itself as its own right side, every document would pair
  // with itself and every other pair come out in both orders.
  EXPECT_EQ(joiner.Finish(corpus.dictionary, Jaccard(), 0.5, nullptr,
                          /*right=*/&joiner)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(joiner.MakeCursor(corpus.dictionary, Jaccard(), 0.5, nullptr,
                              /*right=*/&joiner)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedSelfJoin, EmptyAndDegenerateInputs) {
  TokenDictionary dict;
  ShardedJoinOptions options;
  options.num_shards = 4;
  // Empty corpus.
  EXPECT_TRUE(
      ShardedMeasureSelfJoin({}, dict, Jaccard(), 0.5, options).value().empty());
  // All-empty docs produce nothing (the empty-doc contract).
  std::vector<std::vector<int32_t>> empties(5);
  EXPECT_TRUE(ShardedMeasureSelfJoin(JaccardDocs(empties), dict, Jaccard(),
                                     0.5, options)
                  .value()
                  .empty());
  // Bipartite with empty docs mixed in on both sides: the empty pair
  // (which brute force scores 1.0) is not joined.
  std::vector<std::vector<int32_t>> left = {{}, dict.AddDocument({"a", "b"})};
  std::vector<std::vector<int32_t>> right = {{},
                                             dict.AddDocument({"a", "b"})};
  EXPECT_EQ(ShardedMeasureBipartiteJoin(JaccardDocs(left), JaccardDocs(right),
                                        dict, Jaccard(), 0.5, options)
                .value(),
            (std::vector<ScoredPair>{{1, 1, 1.0}}));
  // Fewer docs than shards.
  std::vector<std::vector<int32_t>> docs;
  docs.push_back(dict.AddDocument({"a", "b"}));
  docs.push_back(dict.AddDocument({"a", "b"}));
  options.num_shards = 16;
  const auto result =
      ShardedMeasureSelfJoin(JaccardDocs(docs), dict, Jaccard(), 1.0, options)
          .value();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].left, 0);
  EXPECT_EQ(result[0].right, 1);
}

TEST(ShardedSelfJoin, InvalidThresholdsAreRejected) {
  const TokenDictionary dict;
  const ShardedJoinOptions options;
  EXPECT_EQ(ShardedMeasureSelfJoin({}, dict, Jaccard(), 0.0, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ShardedMeasureSelfJoin({}, dict, Jaccard(), 1.5, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ShardedMeasureBipartiteJoin({}, {}, dict, Jaccard(), -0.5, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// The merge tail: sorted runs -> one (left, right)-sorted vector
// ---------------------------------------------------------------------------

// Pool sizes the merge must be exact at: inline (null), then 1, 2, 4
// workers.
constexpr int kPoolSizes[] = {0, 1, 2, 4};

std::vector<ScoredPair> ConcatenateAndSort(const internal::SortedRuns& runs) {
  std::vector<ScoredPair> all;
  for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
  SortByPairOrder(all);
  return all;
}

// `num_pairs` distinct (left, right) keys over `num_left` left ids, dealt to
// `num_runs` runs by `run_of(left, right)`, each run sorted. Scores are
// distinct, so a misplaced pair cannot compare equal.
template <typename RunOf>
internal::SortedRuns MakeRuns(uint64_t seed, size_t num_runs,
                              size_t num_pairs, int32_t num_left,
                              RunOf run_of) {
  Rng rng(seed);
  std::vector<std::pair<int32_t, int32_t>> keys;
  for (int32_t left = 0; left < num_left; ++left) {
    for (int32_t right = left + 1; right < num_left + 64; ++right) {
      keys.push_back({left, right});
    }
  }
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Index(i)]);
  }
  keys.resize(std::min(keys.size(), num_pairs));
  internal::SortedRuns runs(num_runs);
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto [left, right] = keys[i];
    runs[run_of(left, right) % num_runs].push_back(
        {left, right, static_cast<double>(i)});
  }
  for (auto& run : runs) SortByPairOrder(run);
  return runs;
}

void ExpectMergeExact(const internal::SortedRuns& runs,
                      const std::string& label) {
  const std::vector<ScoredPair> expected = ConcatenateAndSort(runs);
  for (int threads : kPoolSizes) {
    ThreadPool pool(threads);
    ThreadPool* pool_ptr = threads > 0 ? &pool : nullptr;
    EXPECT_EQ(internal::MergeSortedRuns(runs, pool_ptr), expected)
        << label << " threads=" << threads;
  }
  // The ranges, walked in order, are the pairs in (left, right) order, and
  // each range starts at the rank its cuts sum to.
  for (int threads : kPoolSizes) {
    ThreadPool pool(threads);
    const std::vector<std::vector<size_t>> cuts =
        internal::CutRunsByLeftId(runs, threads > 0 ? &pool : nullptr);
    ASSERT_GE(cuts.size(), 2u);
    std::vector<ScoredPair> visited;
    for (size_t r = 0; r + 1 < cuts.size(); ++r) {
      size_t rank = 0;
      for (const size_t start : cuts[r]) rank += start;
      EXPECT_EQ(rank, visited.size()) << label << " range " << r;
      internal::ForEachInPairOrder(runs, cuts[r], cuts[r + 1],
                                   [&visited](const ScoredPair& pair) {
                                     visited.push_back(pair);
                                     return true;
                                   });
    }
    EXPECT_EQ(visited, expected)
        << label << " threads=" << threads << " (CutRunsByLeftId)";
  }
}

TEST(MergeSortedRuns, EqualsConcatenationPlusSort) {
  // Enough pairs that the 4-worker pool cuts several left-id ranges.
  ExpectMergeExact(MakeRuns(1, 7, 60000, 900,
                            [](int32_t left, int32_t right) {
                              return static_cast<size_t>(left * 31 + right);
                            }),
                   "seven runs");
  ExpectMergeExact(MakeRuns(2, 64, 30000, 500,
                            [](int32_t left, int32_t right) {
                              return static_cast<size_t>(left ^ right);
                            }),
                   "64 runs");
}

TEST(MergeSortedRuns, AllPairsInOneRunAmongEmptyRuns) {
  internal::SortedRuns runs = MakeRuns(
      3, 9, 20000, 400, [](int32_t, int32_t) { return size_t{4}; });
  ExpectMergeExact(runs, "one of nine");
  // A lone run comes back as is.
  runs.erase(runs.begin(), runs.begin() + 4);
  runs.resize(1);
  ExpectMergeExact(runs, "only run");
}

TEST(MergeSortedRuns, EmptyInputs) {
  ExpectMergeExact({}, "no runs");
  ExpectMergeExact(internal::SortedRuns(5), "five empty runs");
}

TEST(MergeSortedRuns, OneLeftIdHoldsMostPairs) {
  // Range cuts fall on left ids, so a dominant left id puts most of the
  // output in one range and leaves others empty.
  internal::SortedRuns runs(6);
  for (int32_t right = 1; right < 30000; ++right) {
    runs[static_cast<size_t>(right) % 6].push_back({0, right, 1.0 * right});
  }
  for (int32_t left = 1; left < 40; ++left) {
    runs[static_cast<size_t>(left) % 6].push_back({left, 30000 + left, 0.5});
  }
  for (auto& run : runs) SortByPairOrder(run);
  ExpectMergeExact(runs, "skewed");
}

// ---------------------------------------------------------------------------
// The per-run sort: RadixSortedCopy == SortByPairOrder
// ---------------------------------------------------------------------------

void ExpectRadixExact(const std::vector<ScoredPair>& pairs,
                      const std::string& label) {
  std::vector<ScoredPair> expected = pairs;
  SortByPairOrder(expected);
  std::vector<ScoredPair> scratch = pairs;
  EXPECT_EQ(internal::RadixSortedCopy(scratch), expected) << label;
}

// `count` distinct keys, left in [0, max_left] and right in
// [0, max_right], shuffled; self-join shape (left < right) when `self`.
std::vector<ScoredPair> RandomDistinctPairs(uint64_t seed, size_t count,
                                            int64_t max_left,
                                            int64_t max_right, bool self) {
  Rng rng(seed);
  std::vector<ScoredPair> pairs;
  while (pairs.size() < count) {
    auto left = static_cast<int32_t>(
        rng.Index(static_cast<uint64_t>(max_left) + 1));
    auto right = static_cast<int32_t>(
        rng.Index(static_cast<uint64_t>(max_right) + 1));
    if (self) {
      if (left == right) continue;
      if (left > right) std::swap(left, right);
    }
    pairs.push_back({left, right, 0.0});
  }
  SortByPairOrder(pairs);
  pairs.erase(std::unique(pairs.begin(), pairs.end(),
                          [](const ScoredPair& x, const ScoredPair& y) {
                            return x.left == y.left && x.right == y.right;
                          }),
              pairs.end());
  for (size_t i = pairs.size(); i > 1; --i) {
    std::swap(pairs[i - 1], pairs[rng.Index(i)]);
  }
  // Distinct scores, so a misplaced pair cannot compare equal.
  for (size_t i = 0; i < pairs.size(); ++i) {
    pairs[i].score = static_cast<double>(i);
  }
  return pairs;
}

TEST(RadixSortedCopy, MatchesSortByPairOrderAcrossIdRanges) {
  constexpr int64_t kMax = std::numeric_limits<int32_t>::max();
  const int64_t max_ids[] = {1, 255, 997, (int64_t{1} << 16) - 1,
                             (int64_t{1} << 16) + 4000, int64_t{1} << 24,
                             kMax};
  for (const int64_t max_id : max_ids) {
    ExpectRadixExact(
        RandomDistinctPairs(static_cast<uint64_t>(max_id), 5000, max_id,
                            max_id, /*self=*/true),
        StrFormat("self, ids <= %lld", static_cast<long long>(max_id)));
  }
  // Bipartite key ranges: the sides' id ranges differ, and a left id may
  // exceed its right partner.
  ExpectRadixExact(RandomDistinctPairs(7, 8000, 300, kMax, false),
                   "bipartite, narrow left");
  ExpectRadixExact(RandomDistinctPairs(8, 8000, kMax, 300, false),
                   "bipartite, narrow right");
  ExpectRadixExact(RandomDistinctPairs(9, 8000, 70000, 70000, false),
                   "bipartite, ids above 2^16");
}

TEST(RadixSortedCopy, EmptyOneAndExtremeRuns) {
  ExpectRadixExact({}, "empty");
  ExpectRadixExact({{3, 9, 0.5}}, "one pair");
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  ExpectRadixExact({{kMax, kMax, 1.0}, {0, kMax, 2.0}, {kMax, 0, 3.0},
                    {0, 0, 4.0}, {kMax - 1, kMax, 5.0}, {1, 0, 6.0}},
                   "extreme ids");
  // Keys differing only in the top byte of each side.
  ExpectRadixExact({{1 << 24, 5, 1.0}, {0, 5, 2.0}, {0, 5 + (1 << 24), 3.0},
                    {1 << 30, 0, 4.0}},
                   "high bytes only");
  // One left id, so only the right side's bytes vary.
  std::vector<ScoredPair> row;
  for (int32_t right = 40000; right > 0; right -= 7) {
    row.push_back({12, right, 1.0 * right});
  }
  ExpectRadixExact(row, "one left id");
}

// Joins whose pairs all come from one probe task: every doc whose id is a
// multiple of `shards` (all in shard 0) shares tokens; every other doc is
// unique. Every other task is empty.
Corpus MakeOneTaskCorpus(size_t num_docs, int shards) {
  Corpus corpus;
  for (size_t d = 0; d < num_docs; ++d) {
    std::vector<std::string> tokens;
    if (d % static_cast<size_t>(shards) == 0) {
      tokens = {"shared", "common", StrFormat("w%zu", d % 3)};
    } else {
      tokens = {StrFormat("solo%zu", d), StrFormat("only%zu", d)};
    }
    corpus.docs.push_back(corpus.dictionary.AddDocument(tokens));
  }
  return corpus;
}

TEST(ShardedJoinMerge, AllPairsFromOneTaskAtEveryPoolSize) {
  constexpr int kShards = 4;
  const Corpus corpus = MakeOneTaskCorpus(200, kShards);
  const auto expected = BruteForceSelfJoin(corpus.docs, 0.5);
  ASSERT_GT(expected.size(), 100u);
  ShardedSelfJoiner joiner(kShards);
  for (const MeasureDoc& doc : JaccardDocs(corpus.docs)) joiner.Add(doc);
  for (int threads : kPoolSizes) {
    ThreadPool pool(threads);
    ThreadPool* pool_ptr = threads > 0 ? &pool : nullptr;
    EXPECT_EQ(
        joiner.Finish(corpus.dictionary, Jaccard(), 0.5, pool_ptr).value(),
        expected)
        << "threads=" << threads;
    ShardedJoinCursor cursor =
        joiner.MakeCursor(corpus.dictionary, Jaccard(), 0.5, pool_ptr)
            .value();
    const internal::SortedRuns runs =
        cursor.NextBatchRuns(cursor.num_tasks(), pool_ptr).value();
    size_t nonempty = 0;
    for (const auto& run : runs) nonempty += run.empty() ? 0 : 1;
    EXPECT_EQ(nonempty, 1u) << "threads=" << threads;
    EXPECT_EQ(ConcatenateAndSort(runs), expected) << "threads=" << threads;
  }
}

TEST(ShardedJoinMerge, OneAndSixtyFourShardsAtEveryPoolSize) {
  const Corpus corpus = MakeRandomCorpus(/*seed=*/903, /*num_docs=*/400,
                                         /*vocabulary=*/90, 2, 12);
  const std::vector<std::vector<int32_t>> left(corpus.docs.begin(),
                                               corpus.docs.begin() + 150);
  const std::vector<std::vector<int32_t>> right(corpus.docs.begin() + 150,
                                                corpus.docs.end());
  const auto self_expected = BruteForceSelfJoin(corpus.docs, 0.4);
  const auto bipartite_expected = BruteForceBipartiteJoin(left, right, 0.4);
  for (int shards : {1, 64}) {
    for (int threads : kPoolSizes) {
      ShardedJoinOptions options;
      options.num_shards = shards;
      options.num_threads = threads;
      EXPECT_EQ(ShardedMeasureSelfJoin(JaccardDocs(corpus.docs),
                                       corpus.dictionary, Jaccard(), 0.4,
                                       options)
                    .value(),
                self_expected)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(ShardedMeasureBipartiteJoin(JaccardDocs(left),
                                            JaccardDocs(right),
                                            corpus.dictionary, Jaccard(), 0.4,
                                            options)
                    .value(),
                bipartite_expected)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(ShardedJoinMerge, OneTaskPerBatchMatchesItsRuns) {
  const Corpus corpus = MakeRandomCorpus(/*seed=*/904, /*num_docs=*/300,
                                         /*vocabulary=*/80, 2, 10);
  const auto expected = BruteForceSelfJoin(corpus.docs, 0.4);
  ShardedSelfJoiner joiner(/*num_shards=*/6);
  for (const MeasureDoc& doc : JaccardDocs(corpus.docs)) joiner.Add(doc);
  for (int threads : kPoolSizes) {
    ThreadPool pool(threads);
    ThreadPool* pool_ptr = threads > 0 ? &pool : nullptr;
    ShardedJoinCursor batches =
        joiner.MakeCursor(corpus.dictionary, Jaccard(), 0.4, pool_ptr)
            .value();
    ShardedJoinCursor runs =
        joiner.MakeCursor(corpus.dictionary, Jaccard(), 0.4, pool_ptr)
            .value();
    std::vector<ScoredPair> all;
    while (!batches.done()) {
      const std::vector<ScoredPair> batch =
          batches.NextBatch(1, pool_ptr).value();
      EXPECT_EQ(batch, ConcatenateAndSort(runs.NextBatchRuns(1, pool_ptr)
                                              .value()))
          << "threads=" << threads << " task=" << batches.tasks_done();
      all.insert(all.end(), batch.begin(), batch.end());
    }
    EXPECT_TRUE(runs.done());
    SortByPairOrder(all);
    EXPECT_EQ(all, expected) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace crowdjoin
