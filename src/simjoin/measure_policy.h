#ifndef CROWDJOIN_SIMJOIN_MEASURE_POLICY_H_
#define CROWDJOIN_SIMJOIN_MEASURE_POLICY_H_

// Internal: the static measure policies behind the measure-generic join
// core (sharded_join.cc), the brute-force references (similarity_join.cc)
// and their microbenchmarks. Each policy is a stateless-or-tiny struct of
// inline methods; the join core is a template over the policy type, so
// the runtime measure choice is one switch per join call
// (`DispatchMeasure`) and the per-posting / per-candidate hot paths
// devirtualize completely — the Jaccard instantiation performs exactly
// the operations the pre-measure joins performed, preserving
// byte-identical output.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "simjoin/prefix_filter.h"
#include "simjoin/similarity_measure.h"
#include "text/edit_distance.h"
#include "text/set_similarity.h"

namespace crowdjoin {
namespace internal {

/// One document as the join cores hand it to a policy: rank-encoded
/// signature tokens (ascending), the measure size, and the verification
/// payload (edit distance only).
struct MeasureDocRef {
  const int32_t* ranks = nullptr;
  size_t tok_len = 0;
  size_t size = 0;
  std::string_view payload;
};

/// Token-set Jaccard: the original prefix-filter scheme, unchanged.
/// Signature = word-token set, size = token count, prefix/window/overlap
/// bounds are the classic AllPairs/PPJoin formulas, verification is the
/// early-exit seeded merge.
struct JaccardPolicy {
  /// No fallback bucket: the Jaccard prefix scheme is complete on its own.
  static constexpr bool kUsesFallback = false;

  size_t PrefixLen(double threshold, const int32_t* /*ranks*/,
                   size_t /*tok_len*/, size_t size) const {
    return PrefixLength(threshold, size);
  }
  size_t MinSize(double threshold, size_t size) const {
    return CeilThresholdLength(threshold, size);
  }
  size_t MaxSize(double threshold, size_t size) const {
    return FloorThresholdLength(threshold, size);
  }
  size_t Required(double threshold, size_t probe_tok_len,
                  size_t /*probe_size*/, size_t cand_size) const {
    return RequiredOverlap(threshold, probe_tok_len, cand_size);
  }
  bool Unfilterable(double /*threshold*/, size_t /*tok_len*/,
                    size_t /*size*/) const {
    return false;
  }
  /// Resumes the merge just past the last shared prefix token, at `a_pos`
  /// in `a` and `b_pos` in `b`, with the `seed_overlap` shared tokens
  /// ranked at or below it banked (`JoinCandidate`).
  double Verify(const MeasureDocRef& a, const MeasureDocRef& b, size_t a_pos,
                size_t b_pos, size_t seed_overlap, double threshold) const {
    return BoundedJaccardSeeded(a.ranks, a.tok_len, b.ranks, b.tok_len,
                                a_pos + 1, b_pos + 1, seed_overlap, threshold);
  }
  double Exact(const MeasureDocRef& a, const MeasureDocRef& b) const {
    return JaccardSimilarity(a.ranks, a.tok_len, b.ranks, b.tok_len);
  }
};

/// Normalized edit distance, score = 1 - d / max(|a|, |b|) over normalized
/// strings. Signature = deduplicated character q-grams (pigeonhole: one
/// edit can destroy at most q distinct grams, so a pair within d edits
/// shares all but q*d of either side's grams); size = string length, which
/// both the length window |len_a - len_b| <= d and the banded verifier key
/// on. Documents whose gram set is too small for the pigeonhole prefix to
/// bite (tok_len <= q * max-edits) fall back to a size-windowed bucket —
/// without it, a qualifying pair of such documents may share no gram at
/// all and the filter would not be complete at low thresholds.
struct EditDistancePolicy {
  size_t q = 2;

  static constexpr bool kUsesFallback = true;

  /// Largest edit count any size-window partner of a size-`size` document
  /// can be allowed: d <= (1 - t) * max(sizes), maximized at the window's
  /// upper end. The 1e-6 slack mirrors `RequiredOverlap`, keeping the
  /// filter strictly conservative against the `score + 1e-12 >= t` emit
  /// test.
  size_t MaxEdits(double threshold, size_t size) const {
    return static_cast<size_t>(std::floor(
        (1.0 - threshold) *
            static_cast<double>(FloorThresholdLength(threshold, size)) +
        1e-6));
  }
  /// Edit budget of one concrete pair: floor((1 - t) * max(sizes)).
  static size_t PairEdits(double threshold, size_t size_a, size_t size_b) {
    return static_cast<size_t>(std::floor(
        (1.0 - threshold) * static_cast<double>(std::max(size_a, size_b)) +
        1e-6));
  }
  size_t PrefixLen(double threshold, const int32_t* /*ranks*/, size_t tok_len,
                   size_t size) const {
    if (tok_len == 0) return 0;
    return std::min(tok_len, q * MaxEdits(threshold, size) + 1);
  }
  size_t MinSize(double threshold, size_t size) const {
    return CeilThresholdLength(threshold, size);
  }
  size_t MaxSize(double threshold, size_t size) const {
    return FloorThresholdLength(threshold, size);
  }
  size_t Required(double threshold, size_t probe_tok_len, size_t probe_size,
                  size_t cand_size) const {
    const size_t destroyed = q * PairEdits(threshold, probe_size, cand_size);
    return probe_tok_len > destroyed ? probe_tok_len - destroyed : 0;
  }
  bool Unfilterable(double threshold, size_t tok_len, size_t size) const {
    return tok_len > 0 && tok_len <= q * MaxEdits(threshold, size);
  }
  double Verify(const MeasureDocRef& a, const MeasureDocRef& b,
                size_t /*a_pos*/, size_t /*b_pos*/, size_t /*seed_overlap*/,
                double threshold) const {
    const size_t longest = std::max(a.size, b.size);
    const size_t budget = PairEdits(threshold, a.size, b.size);
    const size_t distance = BoundedLevenshtein(a.payload, b.payload, budget);
    if (distance > budget) return -1.0;  // cannot pass the emit test
    return 1.0 - static_cast<double>(distance) / static_cast<double>(longest);
  }
  double Exact(const MeasureDocRef& a, const MeasureDocRef& b) const {
    const size_t longest = std::max(a.size, b.size);
    if (longest == 0) return 1.0;
    const size_t distance = LevenshteinDistance(a.payload, b.payload);
    return 1.0 - static_cast<double>(distance) / static_cast<double>(longest);
  }
};

/// Idf-weighted set cosine over word tokens, rank-encoded like Jaccard.
/// The prefix is the weighted one: the shortest head of the rarity-ordered
/// document whose removal provably drops the best attainable cosine below
/// the threshold (Cauchy–Schwarz on the remaining weight mass). There is
/// no size window or positional bound — weights, not counts, carry the
/// pruning — so MinSize/MaxSize are the open interval and Required is 0.
struct CosineTfIdfPolicy {
  /// Idf weight per token rank (`CosineRankWeights`), owned by the caller
  /// for the duration of the join call.
  const std::vector<double>* weights = nullptr;

  static constexpr bool kUsesFallback = false;

  size_t PrefixLen(double threshold, const int32_t* ranks, size_t tok_len,
                   size_t /*size*/) const {
    if (tok_len == 0) return 0;
    const std::vector<double>& w = *weights;
    double norm2 = 0.0;
    for (size_t i = 0; i < tok_len; ++i) {
      const double wi = w[static_cast<size_t>(ranks[i])];
      norm2 += wi * wi;
    }
    if (!(norm2 > 0.0)) return 0;
    // A pair sharing none of the first p tokens has cosine at most
    // sqrt(1 - head_mass / norm2); cut as soon as that bound falls
    // (conservatively, 1e-9 slack) below the threshold.
    double head = 0.0;
    for (size_t p = 0; p < tok_len; ++p) {
      const double bound = std::sqrt(std::max(0.0, 1.0 - head / norm2));
      if (bound < threshold - 1e-9) return p;
      const double wp = w[static_cast<size_t>(ranks[p])];
      head += wp * wp;
    }
    return tok_len;
  }
  size_t MinSize(double /*threshold*/, size_t /*size*/) const { return 0; }
  size_t MaxSize(double /*threshold*/, size_t /*size*/) const {
    return std::numeric_limits<size_t>::max();
  }
  size_t Required(double /*threshold*/, size_t /*probe_tok_len*/,
                  size_t /*probe_size*/, size_t /*cand_size*/) const {
    return 0;
  }
  bool Unfilterable(double /*threshold*/, size_t /*tok_len*/,
                    size_t /*size*/) const {
    return false;
  }
  /// Exact weighted cosine in one canonical evaluation order: each norm is
  /// accumulated over its own document ascending, the dot product over the
  /// ascending-rank merge — identical doubles on every join path, and
  /// symmetric in (a, b) because the final combine is commutative.
  double Exact(const MeasureDocRef& a, const MeasureDocRef& b) const {
    const std::vector<double>& w = *weights;
    double norm2_a = 0.0;
    for (size_t i = 0; i < a.tok_len; ++i) {
      const double wi = w[static_cast<size_t>(a.ranks[i])];
      norm2_a += wi * wi;
    }
    double norm2_b = 0.0;
    for (size_t j = 0; j < b.tok_len; ++j) {
      const double wj = w[static_cast<size_t>(b.ranks[j])];
      norm2_b += wj * wj;
    }
    if (!(norm2_a > 0.0) || !(norm2_b > 0.0)) return 0.0;  // zero-norm guard
    double dot = 0.0;
    size_t i = 0;
    size_t j = 0;
    while (i < a.tok_len && j < b.tok_len) {
      if (a.ranks[i] < b.ranks[j]) {
        ++i;
      } else if (a.ranks[i] > b.ranks[j]) {
        ++j;
      } else {
        const double shared = w[static_cast<size_t>(a.ranks[i])];
        dot += shared * shared;
        ++i;
        ++j;
      }
    }
    return dot / (std::sqrt(norm2_a) * std::sqrt(norm2_b));
  }
  double Verify(const MeasureDocRef& a, const MeasureDocRef& b,
                size_t /*a_pos*/, size_t /*b_pos*/, size_t /*seed_overlap*/,
                double /*threshold*/) const {
    return Exact(a, b);
  }
};

/// Runtime -> static dispatch: hands `fn` the concrete policy for
/// `measure`, so every join core instantiates once per measure and inlines
/// the policy calls. `cosine_weights` must outlive the call for the cosine
/// measure (unused otherwise).
template <typename Fn>
auto DispatchMeasure(const SimilarityMeasure& measure,
                     const std::vector<double>* cosine_weights, Fn&& fn) {
  switch (measure.kind()) {
    case MeasureKind::kEditDistance:
      return fn(EditDistancePolicy{static_cast<size_t>(measure.qgram())});
    case MeasureKind::kCosineTfIdf:
      return fn(CosineTfIdfPolicy{cosine_weights});
    case MeasureKind::kJaccard:
      break;
  }
  return fn(JaccardPolicy{});
}

}  // namespace internal
}  // namespace crowdjoin

#endif  // CROWDJOIN_SIMJOIN_MEASURE_POLICY_H_
