#ifndef CROWDJOIN_TEXT_SET_SIMILARITY_H_
#define CROWDJOIN_TEXT_SET_SIMILARITY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace crowdjoin {

/// Size of the intersection of two *sorted, deduplicated* id ranges.
size_t OverlapSize(const int32_t* a, size_t na, const int32_t* b,
                   size_t nb);

/// Size of the intersection of two *sorted, deduplicated* id vectors.
size_t OverlapSize(const std::vector<int32_t>& a,
                   const std::vector<int32_t>& b);

/// Jaccard similarity of sorted, deduplicated id *ranges* — the flat-array
/// core behind the vector overload, for callers (e.g. the sharded join)
/// that store documents in arena-style flat buffers.
double JaccardSimilarity(const int32_t* a, size_t na, const int32_t* b,
                         size_t nb);

/// Jaccard similarity |A∩B| / |A∪B| of sorted, deduplicated id vectors.
/// Two empty sets have similarity 1.
double JaccardSimilarity(const std::vector<int32_t>& a,
                         const std::vector<int32_t>& b);

/// \brief Smallest overlap o with o / (na + nb - o) >= threshold, i.e.
/// o >= t * (na + nb) / (1 + t).
///
/// Under-estimated by a 1e-6 slack so it is strictly conservative relative
/// to the joins' `score + 1e-12 >= threshold` emit test. This is *the*
/// shared definition: the prefix filter's positional prune and the
/// verification kernels must agree on it bit for bit, or a candidate the
/// filter drops could have been one verification would have kept.
inline size_t RequiredOverlap(double threshold, size_t na, size_t nb) {
  const double bound = threshold * static_cast<double>(na + nb) /
                       (1.0 + threshold);
  return static_cast<size_t>(std::max(0.0, std::ceil(bound - 1e-6)));
}

/// \brief Early-exit Jaccard verification for threshold joins.
///
/// Returns the exact Jaccard — bit-identical to `JaccardSimilarity` —
/// whenever the pair could still satisfy `score + 1e-12 >= threshold`, and
/// -1.0 as soon as the merge proves it cannot (the remaining elements can
/// no longer reach `RequiredOverlap`). Joins that emit on
/// `score + 1e-12 >= threshold` therefore produce byte-identical output
/// through either verifier; this one abandons hopeless candidates early.
double BoundedJaccard(const int32_t* a, size_t na, const int32_t* b,
                      size_t nb, double threshold);

inline double BoundedJaccard(const std::vector<int32_t>& a,
                             const std::vector<int32_t>& b,
                             double threshold) {
  return BoundedJaccard(a.data(), a.size(), b.data(), b.size(), threshold);
}

/// \brief `BoundedJaccard` resuming a merge whose first `a_pos` / `b_pos`
/// elements were already consumed with `seed_overlap` matches.
///
/// Precondition: both ranges are sorted by the same strict total order and
/// the split is order-aligned — every element of a[0..a_pos) compares
/// `<=` every element of b[b_pos..) and vice versa, with equal elements
/// only inside the consumed prefixes (counted by `seed_overlap`). The
/// prefix-filter joins satisfy this by seeding just past the last shared
/// prefix token with the count of shared tokens up to it: positions up to
/// it hold tokens no larger than it on both sides, and positions after it
/// strictly larger ones.
/// Returns the exact Jaccard of the *full* sets, or -1.0 under the same
/// early-exit contract as `BoundedJaccard`.
double BoundedJaccardSeeded(const int32_t* a, size_t na, const int32_t* b,
                            size_t nb, size_t a_pos, size_t b_pos,
                            size_t seed_overlap, double threshold);

namespace internal {

/// The verification merge kernels behind `BoundedJaccardSeeded`, exposed
/// for `bench/micro_verify` so kernel choices stay measured, not assumed.
/// All three resume at (i, j) with `overlap` matches banked and return
/// the exact Jaccard of the full (na, nb) sets or -1.0 once `required`
/// overlap is unreachable.

/// Branch-per-element merge; the unreachability check runs only on the
/// mismatch arms (a match never lowers the attainable overlap).
double MergeVerifyBranchy(const int32_t* a, size_t na, const int32_t* b,
                          size_t nb, size_t i, size_t j, size_t overlap,
                          size_t required);

/// Branchless block merge: fixed-size runs of compare/advance steps the
/// compiler turns into straight-line conditional moves, with the
/// unreachability check hoisted to once per block.
double MergeVerifyBlock(const int32_t* a, size_t na, const int32_t* b,
                        size_t nb, size_t i, size_t j, size_t overlap,
                        size_t required);

/// Galloping merge for size-skewed pairs: `a` must be the *smaller*
/// remaining side; each a-element exponential-searches forward in b.
double MergeVerifyGallop(const int32_t* a, size_t na, const int32_t* b,
                         size_t nb, size_t i, size_t j, size_t overlap,
                         size_t required);

/// Remaining-size ratio at which `BoundedJaccardSeeded` switches from the
/// block merge to the galloping path.
inline constexpr size_t kGallopSkew = 8;

}  // namespace internal

/// Convenience: Jaccard over word-token *string* sets (sorts + dedups
/// internally). Useful for tests and one-off scoring.
double JaccardOfTokenSets(std::vector<std::string> a,
                          std::vector<std::string> b);

}  // namespace crowdjoin

#endif  // CROWDJOIN_TEXT_SET_SIMILARITY_H_
