// Streaming-ingestion tests for the round-by-round candidate path:
//  * ShardedJoinCursor batches partition exactly the one-shot Finish output
//    at every batch size / shard count / thread count;
//  * StreamingCandidateFeed emits the same candidate multiset in bounded
//    rounds as in one round of every task — proving the full candidate set
//    is never buffered;
//  * a LabelingSession driven by the feed labels everything correctly.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/labeling_session.h"
#include "datagen/streaming_generator.h"
#include "simjoin/candidate_generator.h"
#include "simjoin/sharded_join.h"
#include "tests/simjoin/join_test_corpus.h"

namespace crowdjoin {
namespace {

using join_testing::Corpus;
using join_testing::Jaccard;
using join_testing::JaccardDocs;
using join_testing::MakeRandomCorpus;

TEST(ShardedJoinCursor, BatchesPartitionTheFinishOutput) {
  const Corpus corpus = MakeRandomCorpus(/*seed=*/911, /*num_docs=*/150,
                                         /*vocabulary=*/60, 2, 12);
  for (int shards : {1, 3, 16}) {
    ShardedSelfJoiner joiner(shards);
    for (const MeasureDoc& doc : JaccardDocs(corpus.docs)) joiner.Add(doc);
    const auto finish =
        joiner.Finish(corpus.dictionary, Jaccard(), 0.4, /*pool=*/nullptr)
            .value();
    for (int64_t batch_size : {int64_t{1}, int64_t{3}, int64_t{1000}}) {
      for (int threads : {0, 4}) {
        ThreadPool pool(threads);
        ThreadPool* pool_ptr = threads > 0 ? &pool : nullptr;
        ShardedJoinCursor cursor =
            joiner.MakeCursor(corpus.dictionary, Jaccard(), 0.4, pool_ptr)
                .value();
        EXPECT_EQ(cursor.num_tasks(),
                  static_cast<int64_t>(shards) * (shards + 1) / 2);
        std::vector<ScoredPair> drained;
        while (!cursor.done()) {
          const auto batch = cursor.NextBatch(batch_size, pool_ptr).value();
          drained.insert(drained.end(), batch.begin(), batch.end());
        }
        EXPECT_TRUE(cursor.NextBatch(batch_size, pool_ptr).value().empty());
        SortByPairOrder(drained);
        ASSERT_EQ(drained, finish)
            << "shards=" << shards << " batch_size=" << batch_size
            << " threads=" << threads;
      }
    }
  }
}

TEST(ShardedJoinCursor, BipartiteBatchesPartitionTheFinishOutput) {
  const Corpus corpus = MakeRandomCorpus(/*seed=*/912, /*num_docs=*/160,
                                         /*vocabulary=*/55, 2, 10);
  const std::vector<MeasureDoc> docs = JaccardDocs(corpus.docs);
  ShardedSelfJoiner left(/*num_shards=*/5);
  ShardedSelfJoiner right(/*num_shards=*/5);
  for (size_t d = 0; d < docs.size(); ++d) {
    (d % 2 == 0 ? left : right).Add(docs[d]);
  }
  const auto finish = left.Finish(corpus.dictionary, Jaccard(), 0.4,
                                  /*pool=*/nullptr, &right)
                          .value();
  ASSERT_FALSE(finish.empty());
  for (int64_t batch_size : {int64_t{1}, int64_t{3}, int64_t{1000}}) {
    for (int threads : {0, 4}) {
      ThreadPool pool(threads);
      ThreadPool* pool_ptr = threads > 0 ? &pool : nullptr;
      ShardedJoinCursor cursor =
          left.MakeCursor(corpus.dictionary, Jaccard(), 0.4, pool_ptr, &right)
              .value();
      EXPECT_EQ(cursor.num_tasks(), 25);
      std::vector<ScoredPair> drained;
      while (!cursor.done()) {
        const auto batch = cursor.NextBatch(batch_size, pool_ptr).value();
        drained.insert(drained.end(), batch.begin(), batch.end());
      }
      EXPECT_TRUE(cursor.NextBatch(batch_size, pool_ptr).value().empty());
      SortByPairOrder(drained);
      ASSERT_EQ(drained, finish)
          << "batch_size=" << batch_size << " threads=" << threads;
    }
  }
}

CandidateSet SortedByIds(CandidateSet candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [](const CandidatePair& x, const CandidatePair& y) {
              if (x.a != y.a) return x.a < y.a;
              if (x.b != y.b) return x.b < y.b;
              return x.likelihood < y.likelihood;
            });
  return candidates;
}

TEST(StreamingCandidateFeed, EmitsTheMaterializedCandidateSetInBoundedRounds) {
  PaperDatasetConfig config;
  config.clusters.total_records = 150;
  config.clusters.max_cluster_size = 25;
  config.seed = 41;

  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.4;
  options.min_likelihood = 0.4;
  ShardedJoinOptions sharding;
  sharding.num_shards = 16;

  StreamingPaperSource materialized_source(config, /*scale_factor=*/2);
  StreamingCandidateFeed::Options one_round;
  one_round.candidates = options;
  one_round.sharding = sharding;
  one_round.tasks_per_round = std::numeric_limits<int64_t>::max();
  const auto materialized_feed =
      StreamingCandidateFeed::Open(materialized_source, one_round).value();
  const std::vector<int32_t> entity_of = materialized_feed->entity_of();
  const CandidateSet materialized = materialized_feed->NextRound().value();
  ASSERT_GT(materialized.size(), 0u);
  EXPECT_TRUE(materialized_feed->NextRound().value().empty());

  StreamingPaperSource source(config, /*scale_factor=*/2);
  StreamingCandidateFeed::Options feed_options;
  feed_options.candidates = options;
  feed_options.sharding = sharding;
  feed_options.tasks_per_round = 8;  // 136 tasks -> 17 cursor batches
  const auto feed = StreamingCandidateFeed::Open(source, feed_options).value();
  EXPECT_EQ(feed->entity_of(), entity_of);

  CandidateSet drained;
  int64_t max_round = 0;
  int64_t rounds = 0;
  while (true) {
    const CandidateSet round = feed->NextRound().value();
    if (round.empty()) break;
    ++rounds;
    max_round = std::max(max_round, static_cast<int64_t>(round.size()));
    drained.insert(drained.end(), round.begin(), round.end());
  }
  // Same candidates (ids and likelihoods), just partitioned into rounds.
  EXPECT_EQ(SortedByIds(drained), SortedByIds(materialized));
  EXPECT_EQ(feed->num_candidates(),
            static_cast<int64_t>(materialized.size()));
  EXPECT_EQ(feed->num_rounds(), rounds);
  EXPECT_EQ(feed->max_round_size(), max_round);
  // The bounded-buffer claim: several rounds, none of them close to the
  // whole candidate set — the feed never holds the materialized result.
  EXPECT_GT(rounds, 3);
  EXPECT_LT(max_round, static_cast<int64_t>(materialized.size()) / 2);
}

TEST(StreamingCandidateFeed, SessionLabelsTheFeedCorrectly) {
  PaperDatasetConfig config;
  config.clusters.total_records = 150;
  config.clusters.max_cluster_size = 25;
  config.seed = 43;
  StreamingPaperSource source(config, /*scale_factor=*/2);

  StreamingCandidateFeed::Options feed_options;
  feed_options.candidates.token_join_threshold = 0.4;
  feed_options.candidates.min_likelihood = 0.4;
  feed_options.sharding.num_shards = 16;
  feed_options.sharding.num_threads = 2;
  feed_options.tasks_per_round = 8;
  const auto feed = StreamingCandidateFeed::Open(source, feed_options).value();
  const GroundTruthOracle truth(feed->entity_of());

  // Record each round on its way into the session so the report's
  // positional outcomes can be checked against ground truth afterwards.
  class RecordingStream : public CandidateStream {
   public:
    RecordingStream(CandidateStream* inner, CandidateSet* sink)
        : inner_(inner), sink_(sink) {}
    Result<CandidateSet> NextRound() override {
      Result<CandidateSet> round = inner_->NextRound();
      if (round.ok()) {
        sink_->insert(sink_->end(), round.value().begin(),
                      round.value().end());
      }
      return round;
    }

   private:
    CandidateStream* inner_;
    CandidateSet* sink_;
  };

  CandidateSet seen;
  RecordingStream recording(feed.get(), &seen);
  GroundTruthOracle oracle = truth;
  LabelingSessionOptions session_options;
  session_options.schedule = SchedulePolicy::kRoundParallel;
  session_options.num_threads = 2;
  LabelingSession session(session_options);
  const LabelingReport report =
      session.RunStream(recording, OrderKind::kExpected, oracle).value();

  ASSERT_EQ(report.num_candidates, static_cast<int64_t>(seen.size()));
  EXPECT_GT(report.num_stream_rounds, 1);
  EXPECT_GT(report.num_deduced, 0);
  EXPECT_EQ(report.num_unlabeled, 0);
  EXPECT_EQ(oracle.num_queries(), report.num_crowdsourced);
  for (size_t i = 0; i < seen.size(); ++i) {
    ASSERT_TRUE(report.outcomes[i].has_value());
    EXPECT_EQ(report.outcomes[i]->label, truth.Truth(seen[i].a, seen[i].b))
        << "candidate " << i;
  }
}

}  // namespace
}  // namespace crowdjoin
