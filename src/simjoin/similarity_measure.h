#ifndef CROWDJOIN_SIMJOIN_SIMILARITY_MEASURE_H_
#define CROWDJOIN_SIMJOIN_SIMILARITY_MEASURE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "simjoin/token_dictionary.h"

namespace crowdjoin {

/// The similarity measures the candidate pipeline can join under.
enum class MeasureKind {
  kJaccard,       ///< token-set Jaccard over word tokens
  kEditDistance,  ///< normalized Levenshtein over normalized strings
  kCosineTfIdf,   ///< idf-weighted set cosine over word tokens
};

/// \brief One document as a measure sees it: the signature tokens driving
/// candidate generation plus whatever verification needs.
///
/// `tokens` are deduplicated, ascending token ids — word tokens for
/// Jaccard/cosine, character q-grams for edit distance. `size` is the
/// measure's length dimension: it drives the join's size windows and the
/// ascending-size processing order (token count for Jaccard/cosine, the
/// normalized string length for edit distance). `payload` is retained only
/// when verification cannot run on the signature (the edit measure's
/// normalized string, fed to the banded-DP verifier); it is empty for the
/// set measures.
struct MeasureDoc {
  std::vector<int32_t> tokens;
  int32_t size = 0;
  std::string payload;
};

/// \brief A similarity measure the join stack composes with: a signature /
/// prefix scheme, a size-window + overlap filter bound, and a verification
/// kernel.
///
/// Every measure must satisfy the filter/verifier contract the sharded
/// joiners assume and the brute-force references
/// (`BruteForceMeasureSelfJoin` / `BruteForceMeasureBipartiteJoin`) check:
///  - completeness: any pair whose exact score passes
///    `score + 1e-12 >= threshold` shares at least one signature token
///    inside both prefixes (or is covered by the measure's fallback
///    bucket), lies inside the `[MinSize, MaxSize]` window, and survives
///    the `Required` overlap bound;
///  - determinism: verification computes the exact score through one fixed
///    sequence of operations per pair, so the sharded join at any
///    shard/thread count and the brute-force reference land on
///    bit-identical doubles;
///  - the empty-doc contract: documents with an empty signature
///    (`tokens.empty()`) take no part in any join.
///
/// The three instances are stateless singletons; join entry points take a
/// `const SimilarityMeasure&` and dispatch internally to static policies
/// (see `simjoin/measure_policy.h`), so the Jaccard path compiles to the
/// exact code it was before measures existed.
class SimilarityMeasure {
 public:
  static const SimilarityMeasure& Jaccard();
  static const SimilarityMeasure& EditDistance();
  static const SimilarityMeasure& CosineTfIdf();
  static const SimilarityMeasure& Get(MeasureKind kind);

  /// Parses a CLI-style name: "jaccard", "edit", "cosine".
  static Result<MeasureKind> ParseKind(std::string_view name);

  MeasureKind kind() const { return kind_; }
  const char* name() const;
  /// Signature gram size of the edit measure (unused by the others).
  int qgram() const { return qgram_; }

  /// Builds one document's measure signature from raw text, interning
  /// tokens through `dictionary` (document frequencies counted once, as
  /// `TokenDictionary::AddDocument` does).
  MeasureDoc MakeDoc(std::string_view text, TokenDictionary& dictionary) const;

  /// `MakeDoc` of text that is already normalized (`NormalizeText`'s
  /// output), for callers that normalize elsewhere, e.g. on a pool.
  MeasureDoc MakeNormalizedDoc(std::string_view normalized,
                               TokenDictionary& dictionary) const;

 private:
  explicit SimilarityMeasure(MeasureKind kind, int qgram)
      : kind_(kind), qgram_(qgram) {}

  MeasureKind kind_;
  int qgram_;
};

/// \brief Per-rank idf weights for the cosine measure: `weights[rank]` is
/// `log(1 + N / (1 + df))` of the token holding that rarity rank, with N
/// the dictionary's document count — the same smoothing `TfIdfModel::Idf`
/// uses. Every weight is > 0, so any non-empty document has a non-zero
/// norm and the cosine verifier's zero-norm guard can only fire on empty
/// documents (which the joins exclude anyway).
std::vector<double> CosineRankWeights(const TokenDictionary& dictionary,
                                      const std::vector<int32_t>& ranks);

}  // namespace crowdjoin

#endif  // CROWDJOIN_SIMJOIN_SIMILARITY_MEASURE_H_
