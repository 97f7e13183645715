#ifndef CROWDJOIN_SIMJOIN_TOKEN_DICTIONARY_H_
#define CROWDJOIN_SIMJOIN_TOKEN_DICTIONARY_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "text/tokenize.h"

namespace crowdjoin {

/// \brief Interns tokens to dense ids and tracks document frequencies.
///
/// The prefix-filter join wants each document's tokens ordered by global
/// rarity (rarest first), so that short prefixes prune aggressively;
/// `SortByRarity` imposes that order using the accumulated frequencies.
class TokenDictionary {
 public:
  /// Interns all tokens of `tokens` (set semantics: duplicates collapse)
  /// and increments their document frequencies once per document.
  /// Returns the document as a deduplicated token-id vector.
  std::vector<int32_t> AddDocument(const std::vector<std::string>& tokens);

  /// `AddDocument` over token views: the same ids and frequencies.
  std::vector<int32_t> AddDocumentViews(
      std::span<const std::string_view> tokens);

  /// Interns without affecting document frequencies (for query-side docs).
  std::vector<int32_t> Encode(const std::vector<std::string>& tokens);

  /// Const, non-interning encode for concurrent readers: maps known tokens
  /// to their ids (sorted, deduplicated) and silently drops unknown ones.
  /// When `num_distinct` is non-null it receives the number of distinct
  /// input tokens *including* unknown ones — the set size a similarity
  /// denominator needs, since an unknown token matches nothing but still
  /// belongs to the query's token set.
  std::vector<int32_t> Lookup(const std::vector<std::string>& tokens,
                              size_t* num_distinct = nullptr) const;

  /// Pre-sizes the intern table and frequency postings for
  /// `expected_tokens` distinct tokens, so corpus loads at a known scale
  /// avoid rehash/regrow churn on the hot `AddDocument` path.
  void Reserve(size_t expected_tokens);

  /// Sorts `doc` by (frequency asc, id asc): rarest token first.
  void SortByRarity(std::vector<int32_t>& doc) const;

  /// Range overload of `SortByRarity` for documents living in flat
  /// (arena-style) buffers, as the sharded join stores them.
  void SortByRarity(int32_t* first, int32_t* last) const;

  /// \brief The rarity permutation: `ranks[token_id]` is the token's rank
  /// under (frequency asc, id asc), 0 = rarest.
  ///
  /// Rank-encoding a document and sorting the plain int32 ranks ascending
  /// yields exactly the `SortByRarity` order — which is how the joins use
  /// it: one O(V log V) pass here replaces a frequency-indirecting
  /// comparator in every per-document sort, and downstream the single
  /// rank order serves prefix extraction, dense postings-arena keys, and
  /// the verification merge alike.
  std::vector<int32_t> RarityRanks() const;

  /// Document frequency of a token id.
  int64_t Frequency(int32_t token_id) const {
    return frequency_[static_cast<size_t>(token_id)];
  }

  /// Number of distinct tokens interned.
  size_t size() const { return frequency_.size(); }

  /// Number of `AddDocument` calls — the corpus size N behind idf-style
  /// weights (the cosine measure's `log(1 + N / (1 + df))`). `Encode`
  /// does not count, matching its no-frequency contract.
  int64_t num_documents() const { return num_documents_; }

 private:
  int32_t Intern(std::string_view token);
  template <typename Tokens>
  std::vector<int32_t> EncodeTokens(const Tokens& tokens);
  /// Counts one document's deduplicated ids into the frequencies.
  std::vector<int32_t> CountDocument(std::vector<int32_t> doc);

  TokenIdMap ids_;
  std::vector<int64_t> frequency_;
  int64_t num_documents_ = 0;
};

}  // namespace crowdjoin

#endif  // CROWDJOIN_SIMJOIN_TOKEN_DICTIONARY_H_
