#ifndef CROWDJOIN_DATAGEN_PERTURB_H_
#define CROWDJOIN_DATAGEN_PERTURB_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace crowdjoin {

/// Per-operation probabilities for text corruption.
struct CorruptionConfig {
  double typo_per_word = 0.08;      ///< chance a word receives one edit op
  double drop_word = 0.06;          ///< chance a word is dropped
  double duplicate_word = 0.01;     ///< chance a word is duplicated
  double swap_adjacent = 0.04;      ///< chance a word swaps with its right neighbor
  double truncate_word = 0.05;      ///< chance a word is cut to a prefix
};

/// \brief Injects realistic dirtiness into generated records, standing in
/// for the OCR noise, formatting drift and human entry errors that make
/// Cora / Abt-Buy require entity resolution in the first place.
///
/// All randomness comes from the provided `Rng`, so corruption is
/// deterministic per seed: the order of the draws is the output contract
/// (the frozen generator checksums depend on it).
///
/// The text operations write into a caller-owned buffer, and `CorruptText`
/// keeps its word scratch as members, so once that scratch has grown to
/// the longest text seen, corrupting a record allocates nothing. A
/// generation block owns one `Corruptor` for all of its records.
class Corruptor {
 public:
  Corruptor(CorruptionConfig config, Rng* rng)
      : config_(config), rng_(rng) {}

  /// Applies one random character edit (substitute/delete/insert/transpose)
  /// to `word` in place (unchanged when shorter than 2 characters).
  void Typo(std::string& word);

  /// Applies word-level corruption (typos, drops, duplications, swaps,
  /// truncations) to whitespace-separated `text` and appends the
  /// single-space-joined result to `out`.
  void CorruptText(std::string_view text, std::string& out);

  /// Appends the initial form of `full_name` to `out`: "first last" becomes
  /// "f last"; a name of fewer than two words is appended unchanged.
  static void InitialForm(std::string_view full_name, std::string& out);

  /// Multiplies a positive value by a factor in [1-jitter, 1+jitter].
  double JitterNumber(double value, double jitter);

 private:
  // A kept word of CorruptText: bytes [begin, begin + size) of `arena_`.
  struct Piece {
    size_t begin;
    size_t size;
  };

  // Edits the word that occupies the tail of `buffer` from `begin` on.
  void TypoAt(std::string& buffer, size_t begin);

  CorruptionConfig config_;
  Rng* rng_;
  // CorruptText scratch, reused from call to call.
  std::vector<std::string_view> words_;
  std::vector<Piece> pieces_;
  std::string arena_;
};

}  // namespace crowdjoin

#endif  // CROWDJOIN_DATAGEN_PERTURB_H_
