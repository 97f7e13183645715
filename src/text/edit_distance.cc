#include "text/edit_distance.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace crowdjoin {

namespace {

// Myers' bit-parallel Levenshtein distance in Hyyrö's formulation, for a
// pattern of 1..64 bytes given by its table `peq` (bit i of peq[c] set iff
// pattern[i] == c): bit i of the vertical delta vectors holds
// D[i+1][j] - D[i][j] for the current text column j. One column costs a
// handful of word operations and nothing is allocated.
size_t MyersDistance(const uint64_t* peq, size_t pattern_len,
                     std::string_view text) {
  const uint64_t last = uint64_t{1} << (pattern_len - 1);
  uint64_t pv = ~uint64_t{0};  // D[i][0] = i: every vertical delta is +1
  uint64_t mv = 0;
  size_t distance = pattern_len;
  for (char c : text) {
    const uint64_t eq = peq[static_cast<unsigned char>(c)];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) ++distance;
    if (mh & last) --distance;
    // D[0][j] = j: the row above the pattern always steps by +1.
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return distance;
}

// `MyersDistance` with pattern `b`, whose table is built per call. The
// table is all zeros between calls: each call clears only its pattern's
// bytes, not all 2 KiB.
size_t BitParallelLevenshtein(std::string_view a, std::string_view b) {
  thread_local uint64_t peq[256] = {};
  for (size_t i = 0; i < b.size(); ++i) {
    peq[static_cast<unsigned char>(b[i])] |= uint64_t{1} << i;
  }
  const size_t distance = MyersDistance(peq, b.size(), a);
  for (char c : b) peq[static_cast<unsigned char>(c)] = 0;
  return distance;
}

}  // namespace

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string
  if (b.empty()) return a.size();
  if (b.size() <= 64) return BitParallelLevenshtein(a, b);
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];  // D[i-1][j-1]
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t up = row[j];  // D[i-1][j]
      const size_t substitute = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j - 1] + 1, up + 1, substitute});
      diag = up;
    }
  }
  return row[b.size()];
}

size_t BoundedLevenshtein(std::string_view a, std::string_view b,
                          size_t max_dist) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string
  if (a.size() - b.size() > max_dist) return max_dist + 1;
  if (b.empty()) return a.size();  // <= max_dist by the size check above
  const size_t k = max_dist;
  const size_t m = b.size();
  const size_t inf = k + 1;  // any band-exterior cell is at least this
  std::vector<size_t> row(m + 1, inf);
  for (size_t j = 0; j <= std::min(m, k); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    const size_t lo = i > k ? i - k : 1;
    const size_t hi = std::min(m, i + k);
    // Entering the loop, row[] holds D[i-1][*] within row i-1's band and
    // `inf` outside it; `diag`/`left` walk D[i-1][j-1] and D[i][j-1].
    size_t diag = row[lo - 1];
    size_t left = inf;
    if (lo == 1) {
      left = i <= k ? i : inf;  // D[i][0] = i, valid only inside the band
      row[0] = left;
    } else {
      row[lo - 1] = inf;  // left band edge fell off this row
    }
    size_t best = inf;
    for (size_t j = lo; j <= hi; ++j) {
      const size_t up = row[j];
      size_t value = std::min(
          {left + 1, up + 1, diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      if (value > inf) value = inf;
      row[j] = value;
      left = value;
      diag = up;
      best = std::min(best, value);
    }
    if (hi < m) row[hi + 1] = inf;  // right band edge for the next row
    if (best >= inf) return inf;    // the whole band exceeded the bound
  }
  return row[m];
}

void LevenshteinPattern::Reset(std::string_view pattern) {
  if (pattern_.size() <= kMaxBitParallel) {
    for (char c : pattern_) peq_[static_cast<unsigned char>(c)] = 0;
  }
  pattern_ = pattern;
  if (pattern_.size() <= kMaxBitParallel) {
    for (size_t i = 0; i < pattern_.size(); ++i) {
      peq_[static_cast<unsigned char>(pattern_[i])] |= uint64_t{1} << i;
    }
  }
}

size_t LevenshteinPattern::Distance(std::string_view text) const {
  if (pattern_.empty()) return text.size();
  if (pattern_.size() > kMaxBitParallel) {
    return LevenshteinDistance(pattern_, text);
  }
  return MyersDistance(peq_.data(), pattern_.size(), text);
}

double LevenshteinPattern::Similarity(std::string_view text) const {
  const size_t longest = std::max(pattern_.size(), text.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(Distance(text)) /
                   static_cast<double>(longest);
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(longest);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t match_window =
      std::max(a.size(), b.size()) / 2 == 0
          ? 0
          : std::max(a.size(), b.size()) / 2 - 1;
  std::vector<bool> a_matched(a.size(), false);
  std::vector<bool> b_matched(b.size(), false);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t lo = i > match_window ? i - match_window : 0;
    const size_t hi = std::min(b.size(), i + match_window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = true;
      b_matched[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  return (m / static_cast<double>(a.size()) +
          m / static_cast<double>(b.size()) +
          (m - static_cast<double>(transpositions) / 2.0) / m) /
         3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale) {
  CJ_CHECK(prefix_scale >= 0.0 && prefix_scale <= 0.25);
  const double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  const size_t max_prefix = std::min<size_t>({4, a.size(), b.size()});
  while (prefix < max_prefix && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * prefix_scale * (1.0 - jaro);
}

}  // namespace crowdjoin
