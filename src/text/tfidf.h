#ifndef CROWDJOIN_TEXT_TFIDF_H_
#define CROWDJOIN_TEXT_TFIDF_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "text/tokenize.h"

namespace crowdjoin {

/// \brief One token list as tf-idf weights, ready for repeated cosines.
///
/// The cosine sums over a document's distinct tokens in the iteration order
/// of its term-frequency map, the order scores have always been summed in;
/// `sum_order` keeps it so likelihoods stay bit-stable. An empty token list
/// has no ids.
struct TfIdfVector {
  std::vector<int32_t> ids;         ///< distinct token ids, ascending
  std::vector<double> weights;      ///< tf * idf, parallel to `ids`
  std::vector<uint32_t> sum_order;  ///< positions into `ids`, summing order
  double norm_sq = 0.0;             ///< sum of squared weights
};

/// \brief TF-IDF weighting model fit over a corpus of token documents.
///
/// Used to weight rare, discriminative tokens (model codes, author names)
/// higher than ubiquitous ones when scoring record similarity.
class TfIdfModel {
 public:
  /// Fits document frequencies over `documents` (each a token list;
  /// duplicate tokens within a document count once).
  static TfIdfModel Fit(const std::vector<std::vector<std::string>>& documents);

  /// Smoothed inverse document frequency: log(1 + N / (1 + df(token))).
  /// Unseen tokens get the maximum idf.
  double Idf(const std::string& token) const;

  /// Weighs `doc` (term frequency = count within the list), interning its
  /// tokens through `ids`.
  TfIdfVector Weigh(const std::vector<std::string>& doc, TokenIdMap& ids) const;

  /// TF-IDF cosine similarity of two token lists (term frequency = count
  /// within the list): `TfIdfCosine` of their weighed vectors.
  double Cosine(const std::vector<std::string>& a,
                const std::vector<std::string>& b) const;

  /// Number of documents the model was fit on.
  size_t num_documents() const { return num_documents_; }

 private:
  std::unordered_map<std::string, int64_t> document_frequency_;
  size_t num_documents_ = 0;
};

/// Cosine of two vectors weighed through the same id map. Returns a value
/// in [0, 1]; 1.0 for two empty token lists.
double TfIdfCosine(const TfIdfVector& a, const TfIdfVector& b);

}  // namespace crowdjoin

#endif  // CROWDJOIN_TEXT_TFIDF_H_
