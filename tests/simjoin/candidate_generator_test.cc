#include "simjoin/candidate_generator.h"

#include <gtest/gtest.h>

#include <cstring>

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
  const RecordScorer scorer = NameScorer();
  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.2;
  EXPECT_EQ(GenerateCandidatesStreaming(source, &scorer, options,
                                        ShardedJoinOptions())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
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
  for (int threads : {0, 2, 4}) {
    for (int shards : {1, 3, 16}) {
      ShardedJoinOptions sharding;
      sharding.num_threads = threads;
      sharding.num_shards = shards;
      std::vector<int32_t> entity_of;
      const CandidateSet streaming =
          GenerateCandidatesStreaming(source, &scorer, options, sharding,
                                      &entity_of)
              .value();
      ASSERT_EQ(streaming, batch) << "threads=" << threads
                                  << " shards=" << shards;
      EXPECT_EQ(entity_of, dataset.entity_of);
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
  for (int threads : {0, 3}) {
    ShardedJoinOptions sharding;
    sharding.num_threads = threads;
    const CandidateSet streaming =
        GenerateCandidatesStreaming(source, &scorer, options, sharding)
            .value();
    ASSERT_EQ(streaming, batch) << "threads=" << threads;
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

TEST(GenerateCandidatesStreaming, NullScorerUsesJoinScores) {
  // The memory-lean configuration: no scorer, likelihood = token Jaccard.
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
      GenerateCandidatesStreaming(source, nullptr, options, sharding,
                                  &entity_of)
          .value();
  EXPECT_EQ(entity_of.size(), 200u);
  ASSERT_FALSE(candidates.empty());
  for (const auto& pair : candidates) {
    EXPECT_GE(pair.likelihood, options.min_likelihood);
    EXPECT_LT(pair.a, pair.b);
  }
  // Deterministic: a fresh pass over the same stream yields the same set.
  const CandidateSet again =
      GenerateCandidatesStreaming(source, nullptr, options, sharding)
          .value();
  EXPECT_EQ(again, candidates);
}

}  // namespace
}  // namespace crowdjoin
