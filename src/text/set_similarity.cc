#include "text/set_similarity.h"

#include <algorithm>

#include "text/tokenize.h"

namespace crowdjoin {

size_t OverlapSize(const int32_t* a, size_t na, const int32_t* b,
                   size_t nb) {
  size_t i = 0;
  size_t j = 0;
  size_t overlap = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++overlap;
      ++i;
      ++j;
    }
  }
  return overlap;
}

size_t OverlapSize(const std::vector<int32_t>& a,
                   const std::vector<int32_t>& b) {
  return OverlapSize(a.data(), a.size(), b.data(), b.size());
}

double JaccardSimilarity(const int32_t* a, size_t na, const int32_t* b,
                         size_t nb) {
  if (na == 0 && nb == 0) return 1.0;
  const size_t overlap = OverlapSize(a, na, b, nb);
  const size_t unions = na + nb - overlap;
  return static_cast<double>(overlap) / static_cast<double>(unions);
}

double JaccardSimilarity(const std::vector<int32_t>& a,
                         const std::vector<int32_t>& b) {
  return JaccardSimilarity(a.data(), a.size(), b.data(), b.size());
}

namespace internal {

namespace {

inline double FinishVerify(size_t overlap, size_t required, size_t na,
                           size_t nb) {
  if (overlap < required) return -1.0;
  const size_t unions = na + nb - overlap;
  return static_cast<double>(overlap) / static_cast<double>(unions);
}

}  // namespace

double MergeVerifyBranchy(const int32_t* a, size_t na, const int32_t* b,
                          size_t nb, size_t i, size_t j, size_t overlap,
                          size_t required) {
  // The merge is hopeless once overlap + min(na - i, nb - j) < required,
  // i.e. once i - overlap > na - required (or the b-side mirror). Only a
  // mismatch advance can newly violate it, and only for the advanced
  // side, so the check lives on the mismatch arms — not per iteration.
  // The caller guarantees required <= overlap + min(na - i, nb - j) on
  // entry, hence required <= na and required <= nb: no underflow.
  const size_t max_skip_a = na - required;
  const size_t max_skip_b = nb - required;
  while (i < na && j < nb) {
    const int32_t va = a[i];
    const int32_t vb = b[j];
    if (va == vb) {
      ++overlap;
      ++i;
      ++j;
    } else if (va < vb) {
      if (++i - overlap > max_skip_a) return -1.0;
    } else {
      if (++j - overlap > max_skip_b) return -1.0;
    }
  }
  return FinishVerify(overlap, required, na, nb);
}

double MergeVerifyBlock(const int32_t* a, size_t na, const int32_t* b,
                        size_t nb, size_t i, size_t j, size_t overlap,
                        size_t required) {
  // Each step advances i and j by at most one, so a run bounded by both
  // remainders cannot overrun either range; the unreachability check then
  // amortizes to once per block instead of once per element.
  constexpr size_t kBlock = 16;
  while (true) {
    size_t run = std::min({kBlock, na - i, nb - j});
    if (run == 0) break;
    for (; run > 0; --run) {
      const int32_t va = a[i];
      const int32_t vb = b[j];
      overlap += static_cast<size_t>(va == vb);
      i += static_cast<size_t>(va <= vb);
      j += static_cast<size_t>(vb <= va);
    }
    if (overlap + std::min(na - i, nb - j) < required) return -1.0;
  }
  return FinishVerify(overlap, required, na, nb);
}

double MergeVerifyGallop(const int32_t* a, size_t na, const int32_t* b,
                         size_t nb, size_t i, size_t j, size_t overlap,
                         size_t required) {
  while (i < na && j < nb) {
    // Every a-element left is worth at most one overlap.
    if (overlap + (na - i) < required) return -1.0;
    const int32_t target = a[i];
    size_t step = 1;
    while (j + step < nb && b[j + step] < target) step <<= 1;
    // First b >= target lies in [j, min(nb, j + step + 1)).
    j = static_cast<size_t>(
        std::lower_bound(b + j, b + std::min(nb, j + step + 1), target) - b);
    if (j < nb && b[j] == target) {
      ++overlap;
      ++j;
    }
    ++i;
  }
  return FinishVerify(overlap, required, na, nb);
}

}  // namespace internal

double BoundedJaccardSeeded(const int32_t* a, size_t na, const int32_t* b,
                            size_t nb, size_t a_pos, size_t b_pos,
                            size_t seed_overlap, double threshold) {
  if (na == 0 && nb == 0) return 1.0;
  const size_t required = RequiredOverlap(threshold, na, nb);
  const size_t rest_a = na - a_pos;
  const size_t rest_b = nb - b_pos;
  // Hopeless before the merge even starts (this also guards the skip
  // allowances inside the kernels against underflow).
  if (seed_overlap + std::min(rest_a, rest_b) < required) return -1.0;
  if (rest_b > rest_a * internal::kGallopSkew) {
    return internal::MergeVerifyGallop(a, na, b, nb, a_pos, b_pos,
                                       seed_overlap, required);
  }
  if (rest_a > rest_b * internal::kGallopSkew) {
    return internal::MergeVerifyGallop(b, nb, a, na, b_pos, a_pos,
                                       seed_overlap, required);
  }
  // Measured (bench/micro_verify + an SF 100 streaming join,
  // BASELINES.md): the branch-per-element merge with mismatch-only exit
  // checks beats the branchless block merge ~2.4x on this workload's
  // short documents (~10 tokens) and ~10% end-to-end at SF 100; the
  // block variant only edges ahead on long docs at mid thresholds.
  // Branchy is therefore the default; the block kernel stays exported
  // and benchmarked so the choice remains an empirical one.
  return internal::MergeVerifyBranchy(a, na, b, nb, a_pos, b_pos,
                                      seed_overlap, required);
}

double BoundedJaccard(const int32_t* a, size_t na, const int32_t* b,
                      size_t nb, double threshold) {
  return BoundedJaccardSeeded(a, na, b, nb, 0, 0, 0, threshold);
}

namespace {

// String mirror of `OverlapSize`: intersection of sorted, deduplicated
// token vectors.
size_t StringOverlapSize(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  size_t i = 0;
  size_t j = 0;
  size_t overlap = 0;
  while (i < a.size() && j < b.size()) {
    const int cmp = a[i].compare(b[j]);
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      ++overlap;
      ++i;
      ++j;
    }
  }
  return overlap;
}

}  // namespace

double JaccardOfTokenSets(std::vector<std::string> a,
                          std::vector<std::string> b) {
  SortUnique(a);
  SortUnique(b);
  const size_t overlap = StringOverlapSize(a, b);
  const size_t unions = a.size() + b.size() - overlap;
  // Two empty sets: don't rely on an early return upstream — guard the
  // division itself so the function stays robust to reordering edits.
  if (unions == 0) return 1.0;
  return static_cast<double>(overlap) / static_cast<double>(unions);
}

}  // namespace crowdjoin
