// Bit-equality of the prepared record scorer against a frozen reference:
// the per-pair composition of text primitives the scorer was before it
// cached per-record features. Every likelihood the machine step emits
// must be reproduced bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/paper_dataset.h"
#include "datagen/product_dataset.h"
#include "simjoin/sharded_join.h"
#include "simjoin/similarity_measure.h"
#include "simjoin/token_dictionary.h"
#include "text/edit_distance.h"
#include "text/normalize.h"
#include "text/record_similarity.h"
#include "text/set_similarity.h"
#include "text/tfidf.h"
#include "text/tokenize.h"

namespace crowdjoin {
namespace {

// TF-IDF cosine as first written: term-frequency maps, summed in their
// iteration order.
double ReferenceTfIdfCosine(const TfIdfModel& model,
                            const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  std::unordered_map<std::string, double> weights_a;
  for (const auto& t : a) weights_a[t] += 1.0;
  std::unordered_map<std::string, double> weights_b;
  for (const auto& t : b) weights_b[t] += 1.0;

  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (auto& [token, tf] : weights_a) {
    const double w = tf * model.Idf(token);
    weights_a[token] = w;
    norm_a += w * w;
  }
  for (auto& [token, tf] : weights_b) {
    const double w = tf * model.Idf(token);
    weights_b[token] = w;
    norm_b += w * w;
  }
  for (const auto& [token, wa] : weights_a) {
    auto it = weights_b.find(token);
    if (it != weights_b.end()) dot += wa * it->second;
  }
  if (norm_a == 0.0 || norm_b == 0.0) return 0.0;
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

// The record scorer's per-pair arithmetic, composed from the primitives.
// Each primitive's per-record output is memoized (it is a pure function of
// one field), so the reference stays affordable over whole workbenches;
// every per-pair step is recomputed exactly as before.
class ReferenceScorer {
 public:
  ReferenceScorer(std::vector<FieldSimilaritySpec> specs,
                  const RecordSet& records)
      : specs_(std::move(specs)), records_(records) {
    for (const FieldSimilaritySpec& spec : specs_) {
      const auto f = static_cast<size_t>(spec.field_index);
      std::vector<std::vector<std::string>> tokens;
      std::vector<std::string> text;
      for (const Record& r : records_) {
        const std::string& field = r.fields[f];
        // Jaccard sort-uniques its inputs itself; doing it once here only
        // saves time.
        switch (spec.measure) {
          case FieldMeasure::kJaccardWords:
            tokens.push_back(WordTokens(field));
            SortUnique(tokens.back());
            break;
          case FieldMeasure::kQGramJaccard:
            tokens.push_back(QGrams(field, spec.q));
            SortUnique(tokens.back());
            break;
          case FieldMeasure::kTfIdfCosine:
            tokens.push_back(WordTokens(field));
            break;
          case FieldMeasure::kLevenshtein:
          case FieldMeasure::kJaroWinkler:
            text.push_back(NormalizeText(field));
            break;
          case FieldMeasure::kNumeric:
            break;
        }
      }
      models_.push_back(spec.measure == FieldMeasure::kTfIdfCosine
                            ? TfIdfModel::Fit(tokens)
                            : TfIdfModel());
      tokens_.push_back(std::move(tokens));
      text_.push_back(std::move(text));
    }
  }

  double Score(size_t i, size_t j) const {
    double total_weight = 0.0;
    double weighted_sum = 0.0;
    for (size_t s = 0; s < specs_.size(); ++s) {
      const FieldSimilaritySpec& spec = specs_[s];
      const auto f = static_cast<size_t>(spec.field_index);
      const std::string& fa = records_[i].fields[f];
      const std::string& fb = records_[j].fields[f];
      if (fa.empty() && fb.empty()) continue;
      double sim = 0.0;
      switch (spec.measure) {
        case FieldMeasure::kJaccardWords:
        case FieldMeasure::kQGramJaccard:
          sim = JaccardOfTokenSets(tokens_[s][i], tokens_[s][j]);
          break;
        case FieldMeasure::kLevenshtein:
          sim = LevenshteinSimilarity(text_[s][i], text_[s][j]);
          break;
        case FieldMeasure::kJaroWinkler:
          sim = JaroWinklerSimilarity(text_[s][i], text_[s][j]);
          break;
        case FieldMeasure::kTfIdfCosine:
          sim = ReferenceTfIdfCosine(models_[s], tokens_[s][i],
                                     tokens_[s][j]);
          break;
        case FieldMeasure::kNumeric:
          sim = NumericProximity(ParseNumericField(fa),
                                 ParseNumericField(fb));
          break;
      }
      weighted_sum += spec.weight * sim;
      total_weight += spec.weight;
    }
    if (total_weight == 0.0) return 0.0;
    return std::clamp(weighted_sum / total_weight, 0.0, 1.0);
  }

 private:
  std::vector<FieldSimilaritySpec> specs_;
  const RecordSet& records_;
  std::vector<TfIdfModel> models_;
  std::vector<std::vector<std::vector<std::string>>> tokens_;
  std::vector<std::vector<std::string>> text_;
};

// Pairs (record positions) the machine step's Jaccard join keeps at the
// workbench threshold; `side_of` null for a self-join.
std::vector<std::pair<size_t, size_t>> WorkbenchJoinedPairs(
    const RecordSet& records, const std::vector<uint8_t>* side_of) {
  const SimilarityMeasure& measure =
      SimilarityMeasure::Get(MeasureKind::kJaccard);
  TokenDictionary dictionary;
  std::vector<MeasureDoc> left;
  std::vector<MeasureDoc> right;
  std::vector<size_t> left_index;
  std::vector<size_t> right_index;
  for (size_t i = 0; i < records.size(); ++i) {
    std::string text;
    for (const auto& field : records[i].fields) text += field + ' ';
    MeasureDoc doc = measure.MakeDoc(text, dictionary);
    if (side_of == nullptr || (*side_of)[i] == 0) {
      left.push_back(std::move(doc));
      left_index.push_back(i);
    } else {
      right.push_back(std::move(doc));
      right_index.push_back(i);
    }
  }
  constexpr double kWorkbenchJoinThreshold = 0.08;
  const ShardedJoinOptions sharding;
  const std::vector<ScoredPair> joined =
      side_of == nullptr
          ? ShardedMeasureSelfJoin(left, dictionary, measure,
                                   kWorkbenchJoinThreshold, sharding)
                .value()
          : ShardedMeasureBipartiteJoin(left, right, dictionary, measure,
                                        kWorkbenchJoinThreshold, sharding)
                .value();
  const std::vector<size_t>& right_of =
      side_of == nullptr ? left_index : right_index;
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(joined.size());
  for (const ScoredPair& pair : joined) {
    pairs.emplace_back(left_index[static_cast<size_t>(pair.left)],
                       right_of[static_cast<size_t>(pair.right)]);
  }
  return pairs;
}

// Counts the pairs whose `score` differs from `want` in any bit.
template <typename Score, typename Want>
void ExpectSameBits(const std::vector<std::pair<size_t, size_t>>& pairs,
                    Score&& score, Want&& want, const std::string& label) {
  size_t mismatches = 0;
  for (const auto& [i, j] : pairs) {
    const double got = score(i, j);
    const double expected = want(i, j);
    if (std::bit_cast<uint64_t>(got) != std::bit_cast<uint64_t>(expected)) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << label << ": records " << i << "," << j << ": "
                      << got << " != " << expected;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label << " over " << pairs.size() << " pairs";
}

// Scores every pair both ways and counts results that differ in any bit;
// then the row cursor against `Score`, over the pairs in the given order
// (the join order keeps each row together) and shuffled (a row switch at
// almost every pair).
void ExpectBitEqual(const RecordScorer& scorer, const RecordSet& records,
                    const std::vector<std::pair<size_t, size_t>>& pairs) {
  const ReferenceScorer reference(scorer.specs(), records);
  const PreparedRecords prepared = scorer.Prepare(records).value();
  const auto score = [&prepared](size_t i, size_t j) {
    return prepared.Score(i, j).value();
  };
  ExpectSameBits(
      pairs, score,
      [&reference](size_t i, size_t j) { return reference.Score(i, j); },
      "prepared vs reference");

  const auto expect_cursor = [&](const auto& order, const std::string& label) {
    PreparedRecords::RowCursor cursor(prepared);
    ExpectSameBits(
        order,
        [&cursor](size_t i, size_t j) { return cursor.Score(i, j).value(); },
        score, label);
  };
  expect_cursor(pairs, "cursor in order");
  std::vector<std::pair<size_t, size_t>> shuffled = pairs;
  Rng rng(5);
  rng.Shuffle(shuffled);
  expect_cursor(shuffled, "cursor shuffled");
}

class WorkbenchBitEquality : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WorkbenchBitEquality, PaperJoinedPairs) {
  PaperDatasetConfig config;
  config.seed = GetParam();
  const Dataset dataset = GeneratePaperDataset(config).value();
  RecordScorer scorer = MakePaperScorer();
  scorer.FitTfIdf(dataset.records);
  const auto pairs = WorkbenchJoinedPairs(dataset.records, nullptr);
  ASSERT_GT(pairs.size(), 100000u);
  ExpectBitEqual(scorer, dataset.records, pairs);
}

TEST_P(WorkbenchBitEquality, ProductJoinedPairs) {
  ProductDatasetConfig config;
  config.seed = GetParam();
  const Dataset dataset = GenerateProductDataset(config).value();
  RecordScorer scorer = MakeProductScorer();
  scorer.FitTfIdf(dataset.records);
  const auto pairs = WorkbenchJoinedPairs(dataset.records, &dataset.side_of);
  ASSERT_FALSE(pairs.empty());
  ExpectBitEqual(scorer, dataset.records, pairs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkbenchBitEquality,
                         ::testing::Values(42u, 77u, 1009u));

Record MakeRecord(ObjectId id, std::vector<std::string> fields) {
  Record record;
  record.id = id;
  record.fields = std::move(fields);
  return record;
}

// Every measure over the corner cases of the skip-and-renormalize rule,
// all pairs (both orders and self-pairs), prepared and one-off.
TEST(PreparedScorerBitEquality, EdgeCaseFields) {
  const RecordSet records = {
      // name, title, price
      MakeRecord(0, {"", "", ""}),              // every field raw-empty
      MakeRecord(1, {"", "", ""}),
      MakeRecord(2, {"!!!", "--", "n/a"}),      // punctuation, unparsable
      MakeRecord(3, {"?", "...", "abc"}),
      MakeRecord(4, {"Sony Bravia", "sony bravia tv", "499.99"}),
      MakeRecord(5, {"sony  BRAVIA-tv", "sony tv", "  500 "}),
      MakeRecord(6, {"martha", "marhta", "0"}),
      MakeRecord(7, {"dixon dicksonx", "dwayne", "-0"}),
  };
  RecordScorer scorer({
      {0, FieldMeasure::kJaccardWords, 0.2},
      {1, FieldMeasure::kQGramJaccard, 0.1, 2},
      {1, FieldMeasure::kLevenshtein, 0.1},
      {0, FieldMeasure::kJaroWinkler, 0.2},
      {0, FieldMeasure::kTfIdfCosine, 0.3},  // "!!!" is an empty document
      {2, FieldMeasure::kNumeric, 0.1},
  });
  scorer.FitTfIdf(records);
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < records.size(); ++i) {
    for (size_t j = 0; j < records.size(); ++j) pairs.emplace_back(i, j);
  }
  ExpectBitEqual(scorer, records, pairs);

  const ReferenceScorer reference(scorer.specs(), records);
  for (const auto& [i, j] : pairs) {
    EXPECT_EQ(std::bit_cast<uint64_t>(
                  scorer.Score(records[i], records[j]).value()),
              std::bit_cast<uint64_t>(reference.Score(i, j)))
        << i << "," << j;
  }
  // Both-raw-empty records skip every spec: no weight, score 0.
  EXPECT_EQ(scorer.Score(records[0], records[1]).value(), 0.0);
}

// The row cursor keeps each row's text as its edit pattern, whatever the
// partner's length: rows shorter and longer than their partners, on both
// sides of the 64-byte bit-parallel word, and empty rows.
TEST(PreparedScorerBitEquality, LevenshteinRowsAcrossThe64ByteWord) {
  RecordSet records;
  Rng rng(64);
  const size_t lengths[] = {0, 1, 5, 31, 63, 64, 65, 80, 128, 200};
  for (const size_t length : lengths) {
    for (int copy = 0; copy < 3; ++copy) {
      std::string text(length, ' ');
      for (char& c : text) c = "abcde"[rng.Index(5)];
      records.push_back(MakeRecord(static_cast<ObjectId>(records.size()),
                                   {text, std::to_string(length)}));
    }
  }
  RecordScorer scorer({
      {0, FieldMeasure::kLevenshtein, 0.6},
      {0, FieldMeasure::kQGramJaccard, 0.3, 2},
      {1, FieldMeasure::kNumeric, 0.1},
  });
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < records.size(); ++i) {
    for (size_t j = 0; j < records.size(); ++j) pairs.emplace_back(i, j);
  }
  ExpectBitEqual(scorer, records, pairs);
}

// Prepare on a pool of each size (one record range per worker) scores
// every joined pair of both workbenches exactly as the inline Prepare does.
TEST(PreparedScorer, PrepareOnAPoolMatchesInline) {
  PaperDatasetConfig paper_config;
  paper_config.seed = 42;
  const Dataset paper = GeneratePaperDataset(paper_config).value();
  RecordScorer paper_scorer = MakePaperScorer();
  paper_scorer.FitTfIdf(paper.records);
  ProductDatasetConfig product_config;
  product_config.seed = 42;
  const Dataset product = GenerateProductDataset(product_config).value();
  RecordScorer product_scorer = MakeProductScorer();
  product_scorer.FitTfIdf(product.records);

  struct Case {
    const RecordScorer* scorer;
    const Dataset* dataset;
    std::vector<std::pair<size_t, size_t>> pairs;
  };
  const Case cases[] = {
      {&paper_scorer, &paper, WorkbenchJoinedPairs(paper.records, nullptr)},
      {&product_scorer, &product,
       WorkbenchJoinedPairs(product.records, &product.side_of)}};
  for (const Case& c : cases) {
    const PreparedRecords inline_prepared =
        c.scorer->Prepare(c.dataset->records).value();
    for (int threads : {0, 1, 2, 4}) {
      ThreadPool pool(threads);
      const PreparedRecords prepared =
          c.scorer->Prepare(c.dataset->records, &pool).value();
      PreparedRecords::RowCursor cursor(prepared);
      ExpectSameBits(
          c.pairs,
          [&cursor](size_t i, size_t j) { return cursor.Score(i, j).value(); },
          [&inline_prepared](size_t i, size_t j) {
            return inline_prepared.Score(i, j).value();
          },
          c.dataset->name + " threads=" + std::to_string(threads));
    }
  }
}

// Fewer records than the pool has ranges for: 0, 1 and 3 records on four
// workers, every spec kind, every pair.
TEST(PreparedScorer, PrepareOnAPoolWithFewerRecordsThanRanges) {
  const RecordSet all = {
      MakeRecord(0, {"Sony Bravia", "sony bravia tv", "499.99"}),
      MakeRecord(1, {"sony  BRAVIA-tv", "", "  500 "}),
      MakeRecord(2, {"martha", "marhta", "0"}),
  };
  RecordScorer scorer({
      {0, FieldMeasure::kJaccardWords, 0.2},
      {1, FieldMeasure::kQGramJaccard, 0.1, 2},
      {1, FieldMeasure::kLevenshtein, 0.1},
      {0, FieldMeasure::kJaroWinkler, 0.2},
      {0, FieldMeasure::kTfIdfCosine, 0.3},
      {2, FieldMeasure::kNumeric, 0.1},
  });
  scorer.FitTfIdf(all);
  ThreadPool pool(4);
  for (size_t n : {0u, 1u, 3u}) {
    const RecordSet records(all.begin(),
                            all.begin() + static_cast<std::ptrdiff_t>(n));
    const PreparedRecords inline_prepared = scorer.Prepare(records).value();
    const PreparedRecords prepared = scorer.Prepare(records, &pool).value();
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) pairs.emplace_back(i, j);
    }
    ExpectSameBits(
        pairs,
        [&prepared](size_t i, size_t j) {
          return prepared.Score(i, j).value();
        },
        [&inline_prepared](size_t i, size_t j) {
          return inline_prepared.Score(i, j).value();
        },
        std::to_string(n) + " records");
    EXPECT_EQ(prepared.Score(0, n).status().code(), StatusCode::kOutOfRange);
  }
}

TEST(PreparedScorer, PositionPastPreparedListIsError) {
  const RecordScorer scorer({{0, FieldMeasure::kJaccardWords, 1.0}});
  const PreparedRecords prepared =
      scorer.Prepare({MakeRecord(0, {"a"}), MakeRecord(1, {"b"})}).value();
  EXPECT_TRUE(prepared.Score(0, 1).ok());
  EXPECT_EQ(prepared.Score(0, 2).status().code(), StatusCode::kOutOfRange);
}

// The cursor fails where `Score` fails, with the same status: a record
// missing a scored field (whichever side), a position past the list, and a
// scorer without specs.
TEST(PreparedScorer, RowCursorReturnsTheErrorsOfScore) {
  const RecordScorer scorer({{0, FieldMeasure::kJaccardWords, 1.0},
                             {1, FieldMeasure::kQGramJaccard, 1.0}});
  const PreparedRecords prepared =
      scorer
          .Prepare({MakeRecord(0, {"a b", "ab"}), MakeRecord(1, {"b"}),
                    MakeRecord(2, {"a", "abc"})})
          .value();
  PreparedRecords::RowCursor cursor(prepared);
  for (const auto& [i, j] : std::vector<std::pair<size_t, size_t>>{
           {0, 2}, {0, 1}, {0, 2}, {1, 0}, {2, 0}, {0, 3}, {3, 0}, {2, 2}}) {
    const Result<double> want = prepared.Score(i, j);
    const Result<double> got = cursor.Score(i, j);
    ASSERT_EQ(got.status(), want.status()) << i << "," << j;
    if (want.ok()) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got.value()),
                std::bit_cast<uint64_t>(want.value()));
    }
  }
  EXPECT_EQ(prepared.Score(1, 2).status(),
            Status::InvalidArgument("field index 1 out of range"));

  const PreparedRecords no_specs =
      RecordScorer({}).Prepare({MakeRecord(0, {"a"})}).value();
  PreparedRecords::RowCursor empty_cursor(no_specs);
  EXPECT_EQ(empty_cursor.Score(0, 0).status(), no_specs.Score(0, 0).status());
  EXPECT_EQ(empty_cursor.Score(0, 0).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace crowdjoin
