#ifndef CROWDJOIN_SIMJOIN_SIMILARITY_JOIN_H_
#define CROWDJOIN_SIMJOIN_SIMILARITY_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "simjoin/similarity_measure.h"
#include "simjoin/token_dictionary.h"

namespace crowdjoin {

/// One joined pair with its exact similarity under the join's measure.
struct ScoredPair {
  int32_t left = 0;   ///< index into the left/only document collection
  int32_t right = 0;  ///< index into the right collection (self-join: left<right)
  double score = 0.0;

  friend bool operator==(const ScoredPair& x, const ScoredPair& y) {
    return x.left == y.left && x.right == y.right && x.score == y.score;
  }
};

/// The canonical (left, right) output order every join emits — the
/// brute-force references and the sharded join alike share this single
/// definition, which is what the sharded join's byte-identical-output
/// contract sorts and merges by.
inline bool PairOrderLess(const ScoredPair& a, const ScoredPair& b) {
  if (a.left != b.left) return a.left < b.left;
  return a.right < b.right;
}

inline void SortByPairOrder(std::vector<ScoredPair>& pairs) {
  std::sort(pairs.begin(), pairs.end(), PairOrderLess);
}

/// Brute-force reference self-join (exact, O(n^2) verifications), the
/// oracle the sharded join is pinned to. Output is in `PairOrderLess`
/// order. Two empty documents score 1.0 here; the sharded join follows
/// the empty-doc contract and joins neither.
std::vector<ScoredPair> BruteForceSelfJoin(
    const std::vector<std::vector<int32_t>>& docs, double threshold);

/// Brute-force reference bipartite join.
std::vector<ScoredPair> BruteForceBipartiteJoin(
    const std::vector<std::vector<int32_t>>& left,
    const std::vector<std::vector<int32_t>>& right, double threshold);

/// Measure-generic brute-force reference self-join: every pair scored with
/// the measure's exact kernel, empty-signature documents excluded — the
/// oracle the measure equivalence suites pin the filtered joins against.
std::vector<ScoredPair> BruteForceMeasureSelfJoin(
    const std::vector<MeasureDoc>& docs, const TokenDictionary& dictionary,
    const SimilarityMeasure& measure, double threshold);

/// Measure-generic brute-force reference bipartite join.
std::vector<ScoredPair> BruteForceMeasureBipartiteJoin(
    const std::vector<MeasureDoc>& left, const std::vector<MeasureDoc>& right,
    const TokenDictionary& dictionary, const SimilarityMeasure& measure,
    double threshold);

}  // namespace crowdjoin

#endif  // CROWDJOIN_SIMJOIN_SIMILARITY_JOIN_H_
