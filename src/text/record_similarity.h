#ifndef CROWDJOIN_TEXT_RECORD_SIMILARITY_H_
#define CROWDJOIN_TEXT_RECORD_SIMILARITY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "text/edit_distance.h"
#include "text/record.h"
#include "text/tfidf.h"

namespace crowdjoin {

class ThreadPool;

/// Per-field similarity measures available to the record scorer.
enum class FieldMeasure : uint8_t {
  kJaccardWords = 0,   ///< Jaccard over normalized word-token sets
  kQGramJaccard = 1,   ///< Jaccard over character q-gram sets
  kLevenshtein = 2,    ///< normalized edit similarity on normalized text
  kJaroWinkler = 3,    ///< Jaro–Winkler on normalized text
  kTfIdfCosine = 4,    ///< TF-IDF-weighted token cosine (requires FitTfIdf)
  kNumeric = 5,        ///< relative numeric proximity (prices, years)
};

/// One field's contribution to the record similarity.
struct FieldSimilaritySpec {
  int field_index = 0;
  FieldMeasure measure = FieldMeasure::kJaccardWords;
  double weight = 1.0;  ///< finite and >= 0
  int q = 3;            ///< gram size for kQGramJaccard; >= 1
};

/// \brief Records prepared for scoring by `RecordScorer::Prepare`.
///
/// Everything a field measure needs from one record is computed once here:
/// token and q-gram sets as sorted int ids (interned per spec), normalized
/// text for the edit measures, parsed numbers, and tf-idf weights. Scoring
/// a pair is then only set-overlap counts and DP on cached strings.
class PreparedRecords {
 public:
  /// Similarity of prepared records `i` and `j` (positions in the prepared
  /// list) in [0, 1]. Bit-identical to `RecordScorer::Score` on the same
  /// two records, including its errors; OutOfRange for a position past the
  /// prepared list.
  Result<double> Score(size_t i, size_t j) const;

  /// \brief Scores pairs row by row: consecutive calls that share the first
  /// record `i` mark its token sets once, and each partner's ids are only
  /// counted against the marks; likewise the row's text is the kept
  /// `LevenshteinPattern` of each edit spec. The machine step scores its
  /// joined pairs in join order, where every left record's partners come
  /// together.
  ///
  /// `Score` and the cursor run one body (specs in order, the skip rule,
  /// the weight renormalization and clamp, the errors); they differ only in
  /// how a set overlap and an edit distance are computed, and both are
  /// exact either way, so the scores are bit-identical. A cursor holds one
  /// byte per interned token of each set spec and 2 KiB per edit spec; use
  /// one per thread. The prepared records must outlive it.
  class RowCursor {
   public:
    explicit RowCursor(const PreparedRecords& prepared);

    /// `prepared.Score(i, j)`.
    Result<double> Score(size_t i, size_t j);

   private:
    const PreparedRecords* prepared_;
    size_t row_;                               // marked record, or npos
    std::vector<std::vector<uint8_t>> marks_;  // per set spec, by token id
    // Per kLevenshtein spec, the row's text; null for other specs.
    std::vector<std::unique_ptr<LevenshteinPattern>> patterns_;
  };

 private:
  friend class RecordScorer;

  enum class FieldState : uint8_t { kPresent, kRawEmpty, kMissing };

  // One spec's features, indexed by record position. Only the members its
  // measure uses are filled.
  struct Column {
    std::vector<FieldState> state;
    std::vector<uint32_t> set_offsets;  // token sets, CSR over `set_ids`
    std::vector<int32_t> set_ids;
    size_t num_tokens = 0;  // set ids are in [0, num_tokens)
    std::vector<std::string> text;
    std::vector<double> number;
    std::vector<TfIdfVector> tfidf;
    bool tfidf_fit = false;
  };

  // The body of both scorers; `overlap(s, i, j)` counts the token ids
  // spec s's sets of records i and j share, and `edit(s, i, j)` is the
  // `LevenshteinSimilarity` of their spec-s texts.
  template <typename Overlap, typename Edit>
  Result<double> ScoreWith(size_t i, size_t j, Overlap&& overlap,
                           Edit&& edit) const;

  std::vector<FieldSimilaritySpec> specs_;
  std::vector<Column> columns_;  // indexed like specs_
  size_t num_records_ = 0;
};

/// \brief Weighted multi-field record similarity — the "machine-based
/// method" that assigns each candidate pair its matching likelihood
/// (Section 2.3, following CrowdER's similarity workflow).
///
/// The score is the weight-normalized average of per-field similarities in
/// [0, 1]. Fields that are empty on both records are skipped (their weight
/// is excluded from normalization); an empty-vs-non-empty field scores 0.
class RecordScorer {
 public:
  /// `specs` must reference valid field indexes of the records scored.
  explicit RecordScorer(std::vector<FieldSimilaritySpec> specs);

  /// Fits one TF-IDF model per kTfIdfCosine field over `records`.
  /// Must be called before Score() if any spec uses kTfIdfCosine.
  void FitTfIdf(const RecordSet& records);

  /// Computes every per-record feature of `records` once, for scoring many
  /// pairs by position. InvalidArgument for a spec with q < 1 (q-gram
  /// measure) or a negative or non-finite weight. A record lacking a spec's
  /// field is only an error when a pair containing it is scored.
  ///
  /// The work fans out over `pool` (nullptr runs inline) as one task per
  /// spec and record range. Each range interns its tokens in a vocabulary
  /// of its own; merging the vocabularies in range order gives every token
  /// the id of its first appearance over all records, so the result is
  /// identical to the inline one at every pool size. Per the shared pool's
  /// rule, do not pass `SharedPool()` from a task running on it.
  Result<PreparedRecords> Prepare(const RecordSet& records,
                                  ThreadPool* pool = nullptr) const;

  /// Similarity of two records in [0, 1]: prepares both and scores them.
  Result<double> Score(const Record& a, const Record& b) const;

  const std::vector<FieldSimilaritySpec>& specs() const { return specs_; }

 private:
  std::vector<FieldSimilaritySpec> specs_;
  // Indexed like specs_; only kTfIdfCosine entries are fit.
  std::vector<TfIdfModel> tfidf_models_;
};

/// Parses `text` as a double after trimming; NaN on failure.
double ParseNumericField(const std::string& text);

/// Relative numeric proximity: max(0, 1 - |x-y| / max(|x|,|y|)).
/// Equal values (both zero, or the same infinity) -> 1.0; NaN inputs, and
/// an infinity against any other value -> 0.0.
double NumericProximity(double x, double y);

}  // namespace crowdjoin

#endif  // CROWDJOIN_TEXT_RECORD_SIMILARITY_H_
