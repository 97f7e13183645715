#include "simjoin/candidate_generator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

#include "common/thread_pool.h"
#include "datagen/paper_dataset.h"
#include "datagen/product_dataset.h"
#include "datagen/streaming_generator.h"
#include "eval/workbench.h"

namespace crowdjoin {
namespace {

Record MakeRecord(ObjectId id, std::vector<std::string> fields) {
  Record record;
  record.id = id;
  record.fields = std::move(fields);
  return record;
}

RecordScorer NameScorer() {
  return RecordScorer({{0, FieldMeasure::kJaccardWords, 1.0}});
}

TEST(GenerateCandidates, SelfJoinFindsSimilarRecords) {
  const RecordSet records = {
      MakeRecord(0, {"apple ipad second generation"}),
      MakeRecord(1, {"apple ipad 2nd generation"}),
      MakeRecord(2, {"completely unrelated stereo receiver"}),
  };
  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.2;
  options.min_likelihood = 0.3;
  const CandidateSet candidates =
      GenerateCandidates(records, nullptr, NameScorer(), options).value();
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].a, 0);
  EXPECT_EQ(candidates[0].b, 1);
  EXPECT_GT(candidates[0].likelihood, 0.5);
}

TEST(GenerateCandidates, BipartiteOnlyCrossSidePairs) {
  const RecordSet records = {
      MakeRecord(0, {"sony bravia lcd tv"}),
      MakeRecord(1, {"sony bravia lcd television"}),  // same side as 0
      MakeRecord(2, {"sony bravia lcd tv set"}),      // other side
  };
  const std::vector<uint8_t> sides = {0, 0, 1};
  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.2;
  options.min_likelihood = 0.2;
  const CandidateSet candidates =
      GenerateCandidates(records, &sides, NameScorer(), options).value();
  // Records 0 and 1 are both on side 0: no candidate between them.
  for (const auto& pair : candidates) {
    EXPECT_NE(sides[static_cast<size_t>(pair.a)],
              sides[static_cast<size_t>(pair.b)])
        << pair.a << "," << pair.b;
  }
  EXPECT_EQ(candidates.size(), 2u);  // (0,2) and (1,2)
}

TEST(GenerateCandidates, SideVectorSizeMismatchIsError) {
  const RecordSet records = {MakeRecord(0, {"x"})};
  const std::vector<uint8_t> sides = {0, 1};
  CandidateGeneratorOptions options;
  EXPECT_EQ(GenerateCandidates(records, &sides, NameScorer(), options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(GenerateCandidates, SideOutsideZeroOrOneIsError) {
  const RecordSet records = {
      MakeRecord(0, {"sony bravia lcd tv"}),
      MakeRecord(1, {"sony bravia lcd television"}),
      MakeRecord(2, {"sony bravia lcd tv set"}),
  };
  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.2;
  for (const uint8_t bad : {uint8_t{2}, uint8_t{255}}) {
    const std::vector<uint8_t> sides = {0, bad, 1};
    const Status status =
        GenerateCandidates(records, &sides, NameScorer(), options).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("record 1"), std::string::npos)
        << status;
  }
}

TEST(GenerateCandidatesStreaming, SideOutsideZeroOrOneIsError) {
  Dataset dataset;
  dataset.bipartite = true;
  dataset.AddRecord(MakeRecord(0, {"sony bravia lcd tv"}), 0);
  dataset.AddRecord(MakeRecord(1, {"sony bravia lcd tv set"}), 0);
  dataset.side_of = {0, 3};
  DatasetRecordSource source(&dataset);
  StreamingCandidateFeed::Options options;
  options.candidates.token_join_threshold = 0.2;
  const Status status = StreamingCandidateFeed::Open(source, options).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("record 1"), std::string::npos) << status;
}

TEST(GenerateCandidates, MinLikelihoodFilters) {
  const RecordSet records = {
      MakeRecord(0, {"alpha beta gamma delta"}),
      MakeRecord(1, {"alpha beta gamma delta epsilon"}),
      MakeRecord(2, {"alpha zeta eta theta"}),
  };
  CandidateGeneratorOptions loose;
  loose.token_join_threshold = 0.1;
  loose.min_likelihood = 0.1;
  CandidateGeneratorOptions strict = loose;
  strict.min_likelihood = 0.75;
  const auto all =
      GenerateCandidates(records, nullptr, NameScorer(), loose).value();
  const auto filtered =
      GenerateCandidates(records, nullptr, NameScorer(), strict).value();
  EXPECT_GT(all.size(), filtered.size());
  for (const auto& pair : filtered) {
    EXPECT_GE(pair.likelihood, 0.75);
  }
}

TEST(GenerateCandidates, LikelihoodNoiseIsDeterministicPerSeed) {
  const RecordSet records = {
      MakeRecord(0, {"one two three four"}),
      MakeRecord(1, {"one two three five"}),
      MakeRecord(2, {"one two six seven"}),
  };
  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.1;
  options.min_likelihood = 0.05;
  options.likelihood_noise_stddev = 0.2;
  options.noise_seed = 77;
  const auto first =
      GenerateCandidates(records, nullptr, NameScorer(), options).value();
  const auto second =
      GenerateCandidates(records, nullptr, NameScorer(), options).value();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i].likelihood, second[i].likelihood);
    EXPECT_GE(first[i].likelihood, 0.01);
    EXPECT_LE(first[i].likelihood, 0.99);
  }
}

TEST(GenerateCandidates, EmptyRecordSet) {
  CandidateGeneratorOptions options;
  EXPECT_TRUE(
      GenerateCandidates({}, nullptr, NameScorer(), options).value().empty());
}

// A scored streaming campaign materializes its stream and runs the body of
// `GenerateCandidates` on its own shards and pool: every layout gives the
// batch path's candidates.
TEST(GenerateCandidatesStreaming, SelfJoinMatchesBatchPath) {
  PaperDatasetConfig config;
  config.clusters.total_records = 120;
  config.clusters.max_cluster_size = 20;
  config.seed = 33;
  const Dataset dataset = GeneratePaperDataset(config).value();
  RecordScorer scorer = MakePaperScorer();
  scorer.FitTfIdf(dataset.records);

  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.15;
  options.min_likelihood = 0.2;
  options.likelihood_noise_stddev = 0.1;
  options.noise_seed = 5;
  const CandidateSet batch =
      GenerateCandidates(dataset.records, nullptr, scorer, options).value();
  ASSERT_FALSE(batch.empty());

  DatasetRecordSource source(&dataset);
  const Dataset streamed = MaterializeDataset(source).value();
  EXPECT_EQ(streamed.entity_of, dataset.entity_of);
  for (int threads : {0, 2, 4}) {
    for (int shards : {1, 3, 16}) {
      ThreadPool pool(threads);
      const CandidateSet on = internal::GenerateCandidatesOn(
                                  streamed.records, nullptr, scorer, options,
                                  shards, threads > 0 ? &pool : nullptr)
                                  .value();
      ASSERT_EQ(on, batch) << "threads=" << threads << " shards=" << shards;
    }
  }
}

TEST(GenerateCandidatesStreaming, BipartiteMatchesBatchPath) {
  ProductDatasetConfig config;
  config.clusters.total_records = 160;
  config.seed = 34;
  const Dataset dataset = GenerateProductDataset(config).value();
  RecordScorer scorer = MakeProductScorer();
  scorer.FitTfIdf(dataset.records);

  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.15;
  options.min_likelihood = 0.2;
  const CandidateSet batch =
      GenerateCandidates(dataset.records, &dataset.side_of, scorer, options)
          .value();
  ASSERT_FALSE(batch.empty());

  DatasetRecordSource source(&dataset);
  const Dataset streamed = MaterializeDataset(source).value();
  for (int threads : {0, 3}) {
    ThreadPool pool(threads);
    const CandidateSet on =
        internal::GenerateCandidatesOn(streamed.records, &streamed.side_of,
                                       scorer, options, /*num_shards=*/0,
                                       threads > 0 ? &pool : nullptr)
            .value();
    ASSERT_EQ(on, batch) << "threads=" << threads;
  }
}

// FNV-1a over every candidate's ids and likelihood bits, in set order.
uint64_t CandidateChecksum(const CandidateSet& candidates) {
  uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xFFu;
      hash *= 1099511628211ull;
    }
  };
  for (const CandidatePair& pair : candidates) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(pair.a)));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(pair.b)));
    uint64_t bits = 0;
    std::memcpy(&bits, &pair.likelihood, sizeof(bits));
    mix(bits);
  }
  return hash;
}

// The seed-42 paper workbench every figure harness starts from: its size,
// its t = 0.4 slice, and the exact likelihoods (captured before the scorer
// moved onto prepared records, so any drift in scoring fails here).
TEST(GenerateCandidates, PaperWorkbenchIsPinned) {
  const ExperimentInput paper = MakePaperExperimentInput(42).value();
  EXPECT_EQ(paper.candidates.size(), 143841u);
  EXPECT_EQ(FilterByThreshold(paper.candidates, 0.4).size(), 25508u);
  EXPECT_EQ(CandidateChecksum(paper.candidates), 10741580375701247341ull);
}

// The seed-42 product workbench, the bipartite machine step: captured
// before the step moved onto the sharded join and the shared pool.
TEST(GenerateCandidates, ProductWorkbenchIsPinned) {
  const ExperimentInput product = MakeProductExperimentInput(42).value();
  EXPECT_EQ(product.candidates.size(), 17922u);
  EXPECT_EQ(FilterByThreshold(product.candidates, 0.4).size(), 2003u);
  EXPECT_EQ(CandidateChecksum(product.candidates), 5382487352068210625ull);
}

// One feed round of every probe task: the whole candidate set of the
// memory-lean configuration, no scorer, likelihood = token Jaccard.
CandidateSet OneRound(RecordSource& source,
                      const CandidateGeneratorOptions& options,
                      const ShardedJoinOptions& sharding,
                      std::vector<int32_t>* entity_of = nullptr) {
  StreamingCandidateFeed::Options feed_options;
  feed_options.candidates = options;
  feed_options.sharding = sharding;
  feed_options.tasks_per_round = std::numeric_limits<int64_t>::max();
  const auto feed = StreamingCandidateFeed::Open(source, feed_options).value();
  if (entity_of != nullptr) {
    *entity_of = feed->TakeEntityOf();
    EXPECT_TRUE(feed->entity_of().empty());
  }
  CandidateSet round = feed->NextRound().value();
  EXPECT_TRUE(feed->NextRound().value().empty());
  return round;
}

TEST(GenerateCandidatesStreaming, NullScorerUsesJoinScores) {
  PaperDatasetConfig config;
  config.clusters.total_records = 100;
  config.clusters.max_cluster_size = 15;
  config.seed = 35;
  StreamingPaperSource source(config, /*scale_factor=*/2);

  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.4;
  options.min_likelihood = 0.4;
  ShardedJoinOptions sharding;
  sharding.num_threads = 2;
  std::vector<int32_t> entity_of;
  const CandidateSet candidates =
      OneRound(source, options, sharding, &entity_of);
  EXPECT_EQ(entity_of.size(), 200u);
  ASSERT_FALSE(candidates.empty());
  for (const auto& pair : candidates) {
    EXPECT_GE(pair.likelihood, options.min_likelihood);
    EXPECT_LT(pair.a, pair.b);
  }
  // Deterministic: a fresh pass over the same stream yields the same set.
  EXPECT_EQ(OneRound(source, options, sharding), candidates);
}

// Every candidate the feed emits, round after round, and how many rounds.
struct Drained {
  CandidateSet candidates;
  int64_t rounds = 0;
};

Drained DrainFeed(StreamingCandidateFeed& feed) {
  Drained drained;
  for (;;) {
    const CandidateSet round = feed.NextRound().value();
    if (round.empty()) return drained;
    ++drained.rounds;
    drained.candidates.insert(drained.candidates.end(), round.begin(),
                              round.end());
  }
}

// The feed's noise contract, pinned: one Normal() per joined pair, in join
// order within a round, the stream continuing across rounds. Each round
// partition has its own likelihoods; every thread count gives the same.
TEST(StreamingCandidateFeed, NoisedRoundsArePinned) {
  struct Pin {
    int64_t tasks_per_round;
    int64_t rounds;
    size_t candidates;
    uint64_t checksum;
  };
  PaperDatasetConfig paper;
  paper.clusters.total_records = 150;
  paper.clusters.max_cluster_size = 25;
  paper.seed = 41;
  ProductDatasetConfig product;
  product.clusters.total_records = 160;
  product.seed = 34;
  const int64_t kAll = std::numeric_limits<int64_t>::max();
  const Pin paper_pins[] = {{1, 132, 1277, 11201486633945464780ull},
                            {3, 45, 1285, 18281147460131127120ull},
                            {8, 17, 1258, 12195225289428006938ull},
                            {kAll, 1, 1279, 9951271324887230292ull}};
  const Pin product_pins[] = {{1, 58, 70, 10535108006493343095ull},
                              {3, 38, 69, 11854384706313463806ull},
                              {8, 27, 70, 10696259440039617238ull},
                              {kAll, 1, 67, 10114112859993205992ull}};
  for (const bool bipartite : {false, true}) {
    for (const Pin& pin : bipartite ? product_pins : paper_pins) {
      for (const int threads : {0, 4}) {
        StreamingPaperSource paper_source(paper, /*scale_factor=*/2);
        StreamingProductSource product_source(product, /*scale_factor=*/2);
        RecordSource& source =
            bipartite ? static_cast<RecordSource&>(product_source)
                      : paper_source;
        StreamingCandidateFeed::Options options;
        options.candidates.token_join_threshold = 0.4;
        options.candidates.min_likelihood = 0.4;
        options.candidates.likelihood_noise_stddev = 0.1;
        options.candidates.noise_seed = 3;
        options.sharding.num_shards = 16;
        options.sharding.num_threads = threads;
        options.tasks_per_round = pin.tasks_per_round;
        const auto feed = StreamingCandidateFeed::Open(source, options).value();
        const Drained drained = DrainFeed(*feed);
        SCOPED_TRACE(testing::Message()
                     << "bipartite=" << bipartite
                     << " tasks_per_round=" << pin.tasks_per_round
                     << " threads=" << threads);
        EXPECT_EQ(drained.rounds, pin.rounds);
        EXPECT_EQ(drained.candidates.size(), pin.candidates);
        EXPECT_EQ(CandidateChecksum(drained.candidates), pin.checksum);
      }
    }
  }
}

// `records` cut to its first `n`, each record's fields joined into one, so
// a one-field word-Jaccard scorer scores a pair exactly as the join does.
Dataset OneFieldPrefix(const Dataset& records, size_t n) {
  Dataset out;
  out.bipartite = records.bipartite;
  for (size_t i = 0; i < n; ++i) {
    std::string all;
    for (const std::string& field : records.records[i].fields) {
      all += field;
      all += ' ';
    }
    Record record = MakeRecord(records.records[i].id, {all});
    if (out.bipartite) {
      out.AddRecord(std::move(record), records.entity_of[i],
                    records.side_of[i]);
    } else {
      out.AddRecord(std::move(record), records.entity_of[i]);
    }
  }
  return out;
}

// The feed's ingest reads its source in blocks: streams ending on either
// side of a block boundary intern, join and emit exactly as
// `GenerateCandidates` does over the same records as one set.
TEST(StreamingCandidateFeed, IngestBlockBoundariesMatchGenerateCandidates) {
  constexpr size_t kBlock = internal::kIngestBlockRecords;
  PaperDatasetConfig paper_config;
  paper_config.clusters.total_records = 2 * kBlock + 1;
  paper_config.seed = 44;
  ProductDatasetConfig product_config;
  product_config.clusters.total_records = 2 * kBlock + 1;
  product_config.seed = 45;
  const Dataset paper = GeneratePaperDataset(paper_config).value();
  const Dataset product = GenerateProductDataset(product_config).value();
  ASSERT_GE(paper.records.size(), 2 * kBlock + 1);
  ASSERT_GE(product.records.size(), 2 * kBlock + 1);

  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.5;
  options.min_likelihood = 0.5;
  options.likelihood_noise_stddev = 0.1;
  options.noise_seed = 6;
  for (const Dataset* full : {&paper, &product}) {
    for (const size_t n : {size_t{0}, size_t{1}, kBlock - 1, kBlock,
                           kBlock + 1, 2 * kBlock + 1}) {
      SCOPED_TRACE(testing::Message() << "bipartite=" << full->bipartite
                                      << " records=" << n);
      const Dataset dataset = OneFieldPrefix(*full, n);
      const CandidateSet expected =
          GenerateCandidates(dataset.records,
                             dataset.bipartite ? &dataset.side_of : nullptr,
                             NameScorer(), options)
              .value();
      if (n > kBlock) {
        EXPECT_FALSE(expected.empty());
      }
      DatasetRecordSource source(&dataset);
      StreamingCandidateFeed::Options feed_options;
      feed_options.candidates = options;
      feed_options.sharding.num_threads = 4;
      feed_options.tasks_per_round = std::numeric_limits<int64_t>::max();
      const auto feed =
          StreamingCandidateFeed::Open(source, feed_options).value();
      EXPECT_EQ(feed->entity_of(), dataset.entity_of);
      const Drained drained = DrainFeed(*feed);
      EXPECT_LE(drained.rounds, 1);
      ASSERT_EQ(drained.candidates, expected);
    }
  }
}

}  // namespace
}  // namespace crowdjoin
