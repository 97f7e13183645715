// Bit-equality of the machine step against a frozen reference: the
// sequential `GenerateCandidates` body as it was before the step moved onto
// the sharded join and the shared pool — the brute-force measure join, then
// scoring, noise and the likelihood cut one pair at a time in join order.
// Every candidate, every likelihood bit and every error must be reproduced.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "datagen/paper_dataset.h"
#include "datagen/product_dataset.h"
#include "datagen/record_source.h"
#include "eval/workbench.h"
#include "simjoin/candidate_generator.h"
#include "simjoin/similarity_join.h"
#include "simjoin/similarity_measure.h"
#include "simjoin/token_dictionary.h"

namespace crowdjoin {
namespace {

std::string ReferenceRecordText(const Record& record) {
  std::string all;
  for (const auto& field : record.fields) {
    all += field;
    all += ' ';
  }
  return all;
}

double ReferenceNoisyLikelihood(double similarity, double stddev, Rng& rng) {
  if (stddev <= 0.0) return similarity;
  return std::clamp(similarity + rng.Normal(0.0, stddev), 0.01, 0.99);
}

// The frozen reference body (sides as it read them: nonzero = right).
Result<CandidateSet> ReferenceGenerateCandidates(
    const RecordSet& records, const std::vector<uint8_t>* side_of,
    const RecordScorer& scorer, const CandidateGeneratorOptions& options) {
  TokenDictionary dictionary;
  CandidateSet candidates;
  Rng noise_rng(options.noise_seed);
  const SimilarityMeasure& measure = SimilarityMeasure::Get(options.measure);
  CJ_ASSIGN_OR_RETURN(const PreparedRecords prepared,
                      scorer.Prepare(records));

  std::vector<ScoredPair> joined;
  std::vector<size_t> left_index;
  std::vector<size_t> right_index;
  if (side_of == nullptr) {
    std::vector<MeasureDoc> docs(records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      docs[i] = measure.MakeDoc(ReferenceRecordText(records[i]), dictionary);
      left_index.push_back(i);
    }
    joined = BruteForceMeasureSelfJoin(docs, dictionary, measure,
                                       options.token_join_threshold);
    right_index = left_index;
  } else {
    std::vector<MeasureDoc> left_docs;
    std::vector<MeasureDoc> right_docs;
    for (size_t i = 0; i < records.size(); ++i) {
      MeasureDoc doc =
          measure.MakeDoc(ReferenceRecordText(records[i]), dictionary);
      if ((*side_of)[i] == 0) {
        left_docs.push_back(std::move(doc));
        left_index.push_back(i);
      } else {
        right_docs.push_back(std::move(doc));
        right_index.push_back(i);
      }
    }
    joined = BruteForceMeasureBipartiteJoin(left_docs, right_docs, dictionary,
                                            measure,
                                            options.token_join_threshold);
  }
  candidates.reserve(joined.size());
  for (const ScoredPair& pair : joined) {
    const size_t left = left_index[static_cast<size_t>(pair.left)];
    const size_t right = right_index[static_cast<size_t>(pair.right)];
    CJ_ASSIGN_OR_RETURN(const double similarity, prepared.Score(left, right));
    const double likelihood = ReferenceNoisyLikelihood(
        similarity, options.likelihood_noise_stddev, noise_rng);
    if (likelihood >= options.min_likelihood) {
      candidates.push_back({records[left].id, records[right].id, likelihood});
    }
  }
  return candidates;
}

// Same pairs in the same order, every likelihood equal to the last bit.
void ExpectBitIdentical(const CandidateSet& actual,
                        const CandidateSet& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].a, expected[i].a) << "pair " << i;
    ASSERT_EQ(actual[i].b, expected[i].b) << "pair " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(actual[i].likelihood),
              std::bit_cast<uint64_t>(expected[i].likelihood))
        << "pair " << i;
  }
}

// Streaming layouts the scorer path must reproduce at: {threads, shards}.
// Each gives the join a different set of sorted runs.
constexpr std::pair<int, int> kStreamingGrid[] = {
    {0, 1}, {1, 3}, {2, 2}, {2, 16}, {4, 3}, {4, 16}};

class WorkbenchEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WorkbenchEquivalence, PaperSelfJoinIsBitIdentical) {
  const uint64_t seed = GetParam();
  PaperDatasetConfig config;
  config.seed = seed;
  const Dataset dataset = GeneratePaperDataset(config).value();
  RecordScorer scorer = MakePaperScorer();
  scorer.FitTfIdf(dataset.records);
  const CandidateGeneratorOptions options = WorkbenchGeneratorOptions(seed);
  const CandidateSet expected =
      ReferenceGenerateCandidates(dataset.records, nullptr, scorer, options)
          .value();
  ASSERT_GT(expected.size(), 100000u);
  ExpectBitIdentical(
      GenerateCandidates(dataset.records, nullptr, scorer, options).value(),
      expected);
}

TEST_P(WorkbenchEquivalence, ProductBipartiteIsBitIdentical) {
  const uint64_t seed = GetParam();
  ProductDatasetConfig config;
  config.seed = seed;
  const Dataset dataset = GenerateProductDataset(config).value();
  RecordScorer scorer = MakeProductScorer();
  scorer.FitTfIdf(dataset.records);
  const CandidateGeneratorOptions options = WorkbenchGeneratorOptions(seed);
  const CandidateSet expected =
      ReferenceGenerateCandidates(dataset.records, &dataset.side_of, scorer,
                                  options)
          .value();
  ASSERT_GT(expected.size(), 10000u);
  ExpectBitIdentical(GenerateCandidates(dataset.records, &dataset.side_of,
                                        scorer, options)
                         .value(),
                     expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkbenchEquivalence,
                         ::testing::Values(42u, 77u, 1009u));

// Each measure at a threshold where its join keeps a real candidate set.
struct MeasureCase {
  MeasureKind kind;
  double threshold;
};
constexpr MeasureCase kMeasureCases[] = {{MeasureKind::kJaccard, 0.15},
                                         {MeasureKind::kEditDistance, 0.6},
                                         {MeasureKind::kCosineTfIdf, 0.25}};

TEST(CandidateEquivalence, EveryMeasureOnASmallCorpus) {
  PaperDatasetConfig paper_config;
  paper_config.clusters.total_records = 120;
  paper_config.clusters.max_cluster_size = 20;
  paper_config.seed = 61;
  const Dataset paper = GeneratePaperDataset(paper_config).value();
  RecordScorer paper_scorer = MakePaperScorer();
  paper_scorer.FitTfIdf(paper.records);

  ProductDatasetConfig product_config;
  product_config.clusters.total_records = 120;
  product_config.seed = 62;
  const Dataset product = GenerateProductDataset(product_config).value();
  RecordScorer product_scorer = MakeProductScorer();
  product_scorer.FitTfIdf(product.records);

  for (const MeasureCase& c : kMeasureCases) {
    CandidateGeneratorOptions options;
    options.measure = c.kind;
    options.token_join_threshold = c.threshold;
    options.min_likelihood = 0.15;
    options.likelihood_noise_stddev = 0.1;
    options.noise_seed = 9;
    SCOPED_TRACE(SimilarityMeasure::Get(c.kind).name());

    const CandidateSet self_expected =
        ReferenceGenerateCandidates(paper.records, nullptr, paper_scorer,
                                    options)
            .value();
    EXPECT_FALSE(self_expected.empty());
    ExpectBitIdentical(
        GenerateCandidates(paper.records, nullptr, paper_scorer, options)
            .value(),
        self_expected);

    const CandidateSet bipartite_expected =
        ReferenceGenerateCandidates(product.records, &product.side_of,
                                    product_scorer, options)
            .value();
    EXPECT_FALSE(bipartite_expected.empty());
    ExpectBitIdentical(GenerateCandidates(product.records, &product.side_of,
                                          product_scorer, options)
                           .value(),
                       bipartite_expected);

    // The streaming scorer path shares join -> score -> emit.
    DatasetRecordSource source(&paper);
    for (const auto& [threads, shards] : kStreamingGrid) {
      ShardedJoinOptions sharding;
      sharding.num_threads = threads;
      sharding.num_shards = shards;
      ExpectBitIdentical(GenerateCandidatesStreaming(source, &paper_scorer,
                                                     options, sharding)
                             .value(),
                         self_expected);
    }
  }
}

Record MakeRecord(ObjectId id, std::vector<std::string> fields) {
  Record record;
  record.id = id;
  record.fields = std::move(fields);
  return record;
}

// Six records in two shards (even ids in shard 0, odd in shard 1), so each
// of the three probe tasks — (0,0), (0,1), (1,1) — is its own sorted run
// with two threads. Only (1,3) and (2,4) join. Record 3 lacks field 2 and
// record 4 lacks fields 1 and 2, so both pairs fail, with different
// errors. (1,3) comes first in join order but sits in the last run; (2,4)
// sits in the first.
TEST(CandidateEquivalence, FirstFailingPairInJoinOrderDecidesTheError) {
  Dataset dataset;
  dataset.AddRecord(MakeRecord(0, {"orchid", "lantern", "velvet"}), 0);
  dataset.AddRecord(MakeRecord(1, {"amber falcon", "river", "stone"}), 1);
  dataset.AddRecord(MakeRecord(2, {"cobalt heron", "meadow", "glass"}), 2);
  dataset.AddRecord(MakeRecord(3, {"amber falcon", "river"}), 1);
  dataset.AddRecord(MakeRecord(4, {"cobalt heron meadow glass"}), 2);
  dataset.AddRecord(MakeRecord(5, {"quartz", "saddle", "tundra"}), 3);
  const RecordScorer scorer({{0, FieldMeasure::kJaccardWords, 1.0},
                             {1, FieldMeasure::kJaccardWords, 1.0},
                             {2, FieldMeasure::kJaccardWords, 1.0}});
  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.5;

  const Status expected =
      ReferenceGenerateCandidates(dataset.records, nullptr, scorer, options)
          .status();
  ASSERT_EQ(expected,
            Status::InvalidArgument("field index 2 out of range"));
  EXPECT_EQ(
      GenerateCandidates(dataset.records, nullptr, scorer, options).status(),
      expected);
  DatasetRecordSource source(&dataset);
  for (int threads : {0, 2, 4}) {
    for (int shards : {1, 2, 16}) {
      ShardedJoinOptions sharding;
      sharding.num_threads = threads;
      sharding.num_shards = shards;
      EXPECT_EQ(
          GenerateCandidatesStreaming(source, &scorer, options, sharding)
              .status(),
          expected)
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

// A workbench-sized corpus with two damaged records: every failing pair
// carries one of two errors, and the one returned must be the reference's.
TEST(CandidateEquivalence, MissingFieldErrorMatchesReference) {
  PaperDatasetConfig config;
  config.clusters.total_records = 300;
  config.clusters.max_cluster_size = 20;
  config.seed = 63;
  RecordScorer scorer = MakePaperScorer();
  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.1;
  for (const auto& [early, late] :
       {std::pair<size_t, size_t>{40, 260}, {260, 40}, {150, 151}}) {
    Dataset dataset = GeneratePaperDataset(config).value();
    dataset.records[early].fields.resize(2);  // venue onwards missing
    dataset.records[late].fields.resize(4);   // pages missing
    scorer.FitTfIdf(dataset.records);
    const Status expected =
        ReferenceGenerateCandidates(dataset.records, nullptr, scorer, options)
            .status();
    ASSERT_FALSE(expected.ok());
    EXPECT_EQ(
        GenerateCandidates(dataset.records, nullptr, scorer, options).status(),
        expected)
        << early << "," << late;
    DatasetRecordSource source(&dataset);
    for (const auto& [threads, shards] : kStreamingGrid) {
      ShardedJoinOptions sharding;
      sharding.num_threads = threads;
      sharding.num_shards = shards;
      EXPECT_EQ(
          GenerateCandidatesStreaming(source, &scorer, options, sharding)
              .status(),
          expected)
          << early << "," << late << " threads=" << threads
          << " shards=" << shards;
    }
  }
}

// The seed-42 paper workbench (997 records, ~197k joined pairs: sixteen
// left-id ranges on four workers) with records replaced by twins of unique
// words, so each twin pair joins only with itself, as (left, left + 1).
// The right twin lacks fields from `missing_from` on, so the pair fails;
// the left twins' ids place the failures in chosen ranges.
Status WorkbenchErrorWithFailingTwins(
    const std::vector<std::pair<size_t, size_t>>& twins_and_missing_from) {
  PaperDatasetConfig config;
  config.seed = 42;
  Dataset dataset = GeneratePaperDataset(config).value();
  for (const auto& [left, missing_from] : twins_and_missing_from) {
    const std::string word = "qzv" + std::to_string(left);
    for (size_t at : {left, left + 1}) {
      for (std::string& field : dataset.records[at].fields) {
        field = word + " " + word + "x";
      }
    }
    dataset.records[left + 1].fields.resize(missing_from);
  }
  RecordScorer scorer = MakePaperScorer();
  scorer.FitTfIdf(dataset.records);
  const CandidateGeneratorOptions options = WorkbenchGeneratorOptions(42);
  const Status expected =
      ReferenceGenerateCandidates(dataset.records, nullptr, scorer, options)
          .status();
  EXPECT_EQ(
      GenerateCandidates(dataset.records, nullptr, scorer, options).status(),
      expected);
  DatasetRecordSource source(&dataset);
  for (const auto& [threads, shards] : kStreamingGrid) {
    ShardedJoinOptions sharding;
    sharding.num_threads = threads;
    sharding.num_shards = shards;
    EXPECT_EQ(GenerateCandidatesStreaming(source, &scorer, options, sharding)
                  .status(),
              expected)
        << "threads=" << threads << " shards=" << shards;
  }
  return expected;
}

// The only failing pair sits in the last range; every earlier range is
// clean and must not mask it.
TEST(CandidateEquivalence, FailureInALaterRangeOnly) {
  EXPECT_EQ(WorkbenchErrorWithFailingTwins({{990, 4}}),
            Status::InvalidArgument("field index 4 out of range"));
}

// Failures in a middle range and in the last range: the earlier range's
// error wins, whichever range fails first in time.
TEST(CandidateEquivalence, EarlierRangeErrorWinsOverALaterOne) {
  EXPECT_EQ(WorkbenchErrorWithFailingTwins({{500, 2}, {990, 4}}),
            Status::InvalidArgument("field index 2 out of range"));
  EXPECT_EQ(WorkbenchErrorWithFailingTwins({{500, 4}, {990, 2}}),
            Status::InvalidArgument("field index 4 out of range"));
}

}  // namespace
}  // namespace crowdjoin
