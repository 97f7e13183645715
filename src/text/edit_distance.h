#ifndef CROWDJOIN_TEXT_EDIT_DISTANCE_H_
#define CROWDJOIN_TEXT_EDIT_DISTANCE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace crowdjoin {

/// Levenshtein (unit-cost insert/delete/substitute) distance. When the
/// shorter string has at most 64 bytes this runs Myers' bit-parallel
/// algorithm, O(|a| + |b|) time and no allocation; longer pairs run the
/// O(|a| * |b|) dynamic program over one O(min(|a|, |b|)) row.
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// \brief Banded Levenshtein: the exact distance when it is <= `max_dist`,
/// otherwise some value > `max_dist` (callers must only compare against
/// the bound, not interpret the overshoot).
///
/// Only the diagonal band |i - j| <= max_dist of the DP matrix is
/// evaluated — every cell outside it costs more than `max_dist` by
/// construction — so time is O(max(|a|, |b|) * min(|b|, 2 * max_dist + 1))
/// and the scan exits early once an entire row exceeds the bound. This is
/// the verification kernel of the edit-distance similarity join, where
/// `max_dist` comes from the join threshold and candidate sizes.
size_t BoundedLevenshtein(std::string_view a, std::string_view b,
                          size_t max_dist);

/// 1 - distance / max(|a|, |b|); 1.0 for two empty strings.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// \brief One string's Myers pattern table, kept to measure it against
/// many others: `Distance(text)` is `LevenshteinDistance(pattern, text)`
/// and `Similarity(text)` is `LevenshteinSimilarity(pattern, text)`.
///
/// A pattern of at most 64 bytes runs the bit-parallel kernel as the
/// pattern whatever the text's length, so its table is built once per
/// `Reset` instead of once per pair; a longer one falls back to
/// `LevenshteinDistance`. The pattern's bytes are not copied and must
/// outlive their use.
class LevenshteinPattern {
 public:
  /// Makes `pattern` the string measured from.
  void Reset(std::string_view pattern);

  size_t Distance(std::string_view text) const;
  double Similarity(std::string_view text) const;

 private:
  static constexpr size_t kMaxBitParallel = 64;

  std::string_view pattern_;
  std::array<uint64_t, 256> peq_{};  ///< bit i of peq_[c]: pattern_[i] == c
};

/// Jaro similarity in [0, 1].
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro–Winkler similarity: Jaro boosted by common prefix (length <= 4)
/// with scale `prefix_scale` (standard 0.1; must be <= 0.25).
double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale = 0.1);

}  // namespace crowdjoin

#endif  // CROWDJOIN_TEXT_EDIT_DISTANCE_H_
