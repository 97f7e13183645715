#ifndef CROWDJOIN_TESTS_SIMJOIN_JOIN_TEST_CORPUS_H_
#define CROWDJOIN_TESTS_SIMJOIN_JOIN_TEST_CORPUS_H_

// Token-vector corpora for the sharded-join suites. The suites check the
// join against the token-vector brute-force references
// (`BruteForceSelfJoin` / `BruteForceBipartiteJoin`) and feed it the same
// documents as Jaccard measure documents (`JaccardDocs`).

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "simjoin/similarity_measure.h"
#include "simjoin/token_dictionary.h"

namespace crowdjoin::join_testing {

struct Corpus {
  TokenDictionary dictionary;
  std::vector<std::vector<int32_t>> docs;
};

/// `num_docs` documents of `min_len..max_len` tokens drawn uniformly from a
/// `vocabulary`-word vocabulary (deduplicated by the dictionary).
inline Corpus MakeRandomCorpus(uint64_t seed, size_t num_docs,
                               size_t vocabulary, size_t min_len,
                               size_t max_len) {
  Corpus corpus;
  Rng rng(seed);
  for (size_t d = 0; d < num_docs; ++d) {
    const size_t len = min_len + rng.Index(max_len - min_len + 1);
    std::vector<std::string> tokens;
    for (size_t t = 0; t < len; ++t) {
      tokens.push_back(StrFormat(
          "w%llu", static_cast<unsigned long long>(rng.Index(vocabulary))));
    }
    corpus.docs.push_back(corpus.dictionary.AddDocument(tokens));
  }
  return corpus;
}

/// The documents as `SimilarityMeasure::Jaccard()` sees them: the token
/// ids as the signature, the token count as the size, no payload.
inline std::vector<MeasureDoc> JaccardDocs(
    const std::vector<std::vector<int32_t>>& docs) {
  std::vector<MeasureDoc> out;
  out.reserve(docs.size());
  for (const std::vector<int32_t>& tokens : docs) {
    out.push_back({tokens, static_cast<int32_t>(tokens.size()), {}});
  }
  return out;
}

/// The measure `JaccardDocs` documents are joined under.
inline const SimilarityMeasure& Jaccard() {
  return SimilarityMeasure::Jaccard();
}

}  // namespace crowdjoin::join_testing

#endif  // CROWDJOIN_TESTS_SIMJOIN_JOIN_TEST_CORPUS_H_
