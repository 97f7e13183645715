#include "text/record_similarity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace crowdjoin {
namespace {

Record MakeRecord(ObjectId id, std::vector<std::string> fields) {
  Record record;
  record.id = id;
  record.fields = std::move(fields);
  return record;
}

TEST(ParseNumericField, ParsesOrNan) {
  EXPECT_DOUBLE_EQ(ParseNumericField("42.5"), 42.5);
  EXPECT_DOUBLE_EQ(ParseNumericField("  7 "), 7.0);
  EXPECT_TRUE(std::isnan(ParseNumericField("")));
  EXPECT_TRUE(std::isnan(ParseNumericField("abc")));
}

TEST(NumericProximity, RelativeDistance) {
  EXPECT_DOUBLE_EQ(NumericProximity(100.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(NumericProximity(0.0, 0.0), 1.0);
  EXPECT_NEAR(NumericProximity(90.0, 100.0), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(NumericProximity(1.0, 1000.0), 1.0 - 999.0 / 1000.0);
  EXPECT_DOUBLE_EQ(NumericProximity(std::nan(""), 1.0), 0.0);
}

TEST(NumericProximity, EqualInfinitiesScoreOne) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(NumericProximity(inf, inf), 1.0);
  EXPECT_DOUBLE_EQ(NumericProximity(-inf, -inf), 1.0);
  EXPECT_DOUBLE_EQ(NumericProximity(inf, -inf), 0.0);
  EXPECT_DOUBLE_EQ(NumericProximity(inf, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(NumericProximity(0.0, -0.0), 1.0);
  // Fields that overflow a double parse to the same infinity.
  EXPECT_DOUBLE_EQ(NumericProximity(ParseNumericField("1e400"),
                                    ParseNumericField("1e400")),
                   1.0);
}

TEST(RecordScorer, IdenticalRecordsScoreOne) {
  RecordScorer scorer({{0, FieldMeasure::kJaccardWords, 1.0}});
  const Record a = MakeRecord(0, {"ipad 2nd gen"});
  EXPECT_DOUBLE_EQ(scorer.Score(a, a).value(), 1.0);
}

TEST(RecordScorer, WeightedBlend) {
  RecordScorer scorer({
      {0, FieldMeasure::kJaccardWords, 3.0},
      {1, FieldMeasure::kNumeric, 1.0},
  });
  const Record a = MakeRecord(0, {"x y", "100"});
  const Record b = MakeRecord(1, {"x z", "50"});
  // Jaccard({x,y},{x,z}) = 1/3; numeric proximity = 0.5.
  EXPECT_NEAR(scorer.Score(a, b).value(),
              (3.0 * (1.0 / 3.0) + 1.0 * 0.5) / 4.0, 1e-12);
}

TEST(RecordScorer, BothFieldsEmptySkipsAndRenormalizes) {
  RecordScorer scorer({
      {0, FieldMeasure::kJaccardWords, 1.0},
      {1, FieldMeasure::kJaccardWords, 1.0},
  });
  const Record a = MakeRecord(0, {"same words", ""});
  const Record b = MakeRecord(1, {"same words", ""});
  EXPECT_DOUBLE_EQ(scorer.Score(a, b).value(), 1.0);
}

TEST(RecordScorer, EmptyVsNonEmptyScoresZeroForThatField) {
  RecordScorer scorer({{0, FieldMeasure::kJaccardWords, 1.0}});
  const Record a = MakeRecord(0, {""});
  const Record b = MakeRecord(1, {"something"});
  EXPECT_DOUBLE_EQ(scorer.Score(a, b).value(), 0.0);
}

TEST(RecordScorer, FieldIndexOutOfRangeIsError) {
  RecordScorer scorer({{5, FieldMeasure::kJaccardWords, 1.0}});
  const Record a = MakeRecord(0, {"x"});
  EXPECT_EQ(scorer.Score(a, a).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RecordScorer, FieldMissingOnlyFailsPairsThatScoreIt) {
  RecordScorer scorer({{1, FieldMeasure::kJaccardWords, 1.0}});
  const PreparedRecords prepared =
      scorer
          .Prepare({MakeRecord(0, {"x", "y"}), MakeRecord(1, {"x"}),
                    MakeRecord(2, {"x", "y"})})
          .value();
  EXPECT_DOUBLE_EQ(prepared.Score(0, 2).value(), 1.0);
  EXPECT_EQ(prepared.Score(0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RecordScorer, QGramSizeBelowOneIsError) {
  RecordScorer scorer({{0, FieldMeasure::kQGramJaccard, 1.0, /*q=*/0}});
  const Record a = MakeRecord(0, {"x"});
  EXPECT_EQ(scorer.Prepare({a}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(scorer.Score(a, a).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RecordScorer, NegativeWeightIsError) {
  RecordScorer scorer({
      {0, FieldMeasure::kJaccardWords, 1.0},
      {0, FieldMeasure::kLevenshtein, -0.5},
  });
  const Record a = MakeRecord(0, {"x"});
  EXPECT_EQ(scorer.Prepare({a}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(scorer.Score(a, a).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RecordScorer, NonFiniteWeightIsError) {
  const Record a = MakeRecord(0, {"x"});
  for (const double weight : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    RecordScorer scorer({{0, FieldMeasure::kJaccardWords, weight}});
    EXPECT_EQ(scorer.Prepare({a}).status().code(),
              StatusCode::kInvalidArgument)
        << weight;
    EXPECT_EQ(scorer.Score(a, a).status().code(),
              StatusCode::kInvalidArgument)
        << weight;
  }
}

TEST(RecordScorer, ZeroWeightIsAllowed) {
  RecordScorer scorer({{0, FieldMeasure::kJaccardWords, 0.0}});
  const Record a = MakeRecord(0, {"x"});
  EXPECT_DOUBLE_EQ(scorer.Score(a, a).value(), 0.0);
}

TEST(RecordScorer, NoSpecsIsError) {
  RecordScorer scorer({});
  const Record a = MakeRecord(0, {"x"});
  EXPECT_EQ(scorer.Score(a, a).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(RecordScorer, TfIdfRequiresFit) {
  RecordScorer scorer({{0, FieldMeasure::kTfIdfCosine, 1.0}});
  const Record a = MakeRecord(0, {"x"});
  EXPECT_EQ(scorer.Score(a, a).status().code(),
            StatusCode::kFailedPrecondition);
  scorer.FitTfIdf({a});
  EXPECT_TRUE(scorer.Score(a, a).ok());
}

TEST(RecordScorer, QGramMeasureCatchesTypos) {
  RecordScorer word_scorer({{0, FieldMeasure::kJaccardWords, 1.0}});
  RecordScorer gram_scorer({{0, FieldMeasure::kQGramJaccard, 1.0, 3}});
  const Record a = MakeRecord(0, {"panasonic"});
  const Record b = MakeRecord(1, {"panasonik"});
  // Word-level Jaccard sees disjoint tokens; 3-grams overlap heavily.
  EXPECT_DOUBLE_EQ(word_scorer.Score(a, b).value(), 0.0);
  EXPECT_GT(gram_scorer.Score(a, b).value(), 0.4);
}

TEST(RecordScorer, AllMeasuresStayInUnitInterval) {
  RecordScorer scorer({
      {0, FieldMeasure::kJaccardWords, 1.0},
      {0, FieldMeasure::kQGramJaccard, 1.0, 2},
      {0, FieldMeasure::kLevenshtein, 1.0},
      {0, FieldMeasure::kJaroWinkler, 1.0},
      {1, FieldMeasure::kNumeric, 1.0},
  });
  const Record a = MakeRecord(0, {"sony bravia tv", "499.99"});
  const Record b = MakeRecord(1, {"sony tv stand", "89.00"});
  const double score = scorer.Score(a, b).value();
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

}  // namespace
}  // namespace crowdjoin
