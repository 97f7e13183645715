#include "text/set_similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace crowdjoin {
namespace {

using Ids = std::vector<int32_t>;

Ids RandomSortedSet(Rng& rng, size_t len, size_t universe) {
  Ids out;
  for (size_t t = 0; t < len * 2 && out.size() < len; ++t) {
    out.push_back(static_cast<int32_t>(rng.Index(universe)));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

TEST(OverlapSize, SortedIntersection) {
  EXPECT_EQ(OverlapSize({1, 3, 5}, {2, 3, 5, 7}), 2u);
  EXPECT_EQ(OverlapSize({}, {1}), 0u);
  EXPECT_EQ(OverlapSize({1, 2}, {3, 4}), 0u);
  EXPECT_EQ(OverlapSize({1, 2, 3}, {1, 2, 3}), 3u);
}

TEST(JaccardSimilarity, KnownValues) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1}, {1}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1}, {2}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {1}), 0.0);
}

TEST(SimilarityOrderingsAgree, MoreOverlapNeverLowersScores) {
  const Ids base = {1, 2, 3, 4};
  const Ids close = {1, 2, 3, 9};
  const Ids far = {1, 8, 9, 10};
  EXPECT_GT(JaccardSimilarity(base, close), JaccardSimilarity(base, far));
}

TEST(JaccardOfTokenSets, DedupsBeforeScoring) {
  EXPECT_DOUBLE_EQ(
      JaccardOfTokenSets({"a", "a", "b"}, {"b", "b", "c"}),
      1.0 / 3.0);
  EXPECT_DOUBLE_EQ(JaccardOfTokenSets({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardOfTokenSets({"x"}, {}), 0.0);
}

TEST(JaccardOfTokenSets, EmptyUnionIsGuardedAtTheDivision) {
  // Regression: the 1.0-for-two-empty-sets result must come from the
  // division guard itself, including when the inputs only *become* empty
  // after dedup... of nothing. Also pin the plain paths around it.
  EXPECT_DOUBLE_EQ(JaccardOfTokenSets({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardOfTokenSets({"a", "b"}, {"a", "b"}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardOfTokenSets({"a"}, {"b"}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardOfTokenSets({}, {"only", "right"}), 0.0);
}

// --- BoundedJaccard / BoundedJaccardSeeded -------------------------------

TEST(RequiredOverlap, MatchesClosedForm) {
  // o / (na + nb - o) >= t at o = RequiredOverlap, not at o - 1.
  for (const double t : {0.3, 0.5, 0.7, 0.9, 1.0}) {
    for (const size_t na : {1u, 4u, 9u, 40u}) {
      for (const size_t nb : {1u, 5u, 12u, 33u}) {
        const size_t required = RequiredOverlap(t, na, nb);
        if (required > 0) {
          const auto o = static_cast<double>(required - 1);
          EXPECT_LT(o / (static_cast<double>(na + nb) - o) + 1e-12, t)
              << "t=" << t << " na=" << na << " nb=" << nb;
        }
      }
    }
  }
  EXPECT_EQ(RequiredOverlap(1e-9, 10, 10), 0u);  // vanishing threshold
}

TEST(BoundedJaccard, EqualDisjointAndEmptySets) {
  const Ids set = {1, 5, 9, 12};
  EXPECT_DOUBLE_EQ(BoundedJaccard(set, set, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(BoundedJaccard(set, set, 0.3), 1.0);
  // Disjoint sets can never reach a positive threshold: early exit.
  EXPECT_DOUBLE_EQ(BoundedJaccard({1, 2, 3}, {7, 8, 9}, 0.3), -1.0);
  EXPECT_DOUBLE_EQ(BoundedJaccard({}, {}, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(BoundedJaccard({}, {1, 2}, 0.5), -1.0);
}

TEST(BoundedJaccard, RequiredOverlapZeroRunsTheFullMerge) {
  // A vanishing threshold makes the required overlap 0: nothing may be
  // abandoned, every score must come back exact.
  EXPECT_DOUBLE_EQ(BoundedJaccard({1, 2, 3}, {7, 8, 9}, 1e-9), 0.0);
  EXPECT_DOUBLE_EQ(BoundedJaccard({1, 2}, {2, 3}, 1e-9), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(BoundedJaccard({}, {1, 2}, 1e-9), 0.0);
}

TEST(BoundedJaccardSeeded, ResumesPastTheMatchedPrefix) {
  // a and b share token 4 at positions 2 and 1; seeding just past it with
  // one overlap banked must reproduce the full-merge score exactly.
  const Ids a = {1, 2, 4, 6, 8};
  const Ids b = {3, 4, 6, 9};
  const double full = JaccardSimilarity(a, b);
  EXPECT_DOUBLE_EQ(BoundedJaccardSeeded(a.data(), a.size(), b.data(),
                                        b.size(), 3, 2, 1, 0.2),
                   full);
  // Seed consuming everything: degenerate resume at the very end.
  EXPECT_DOUBLE_EQ(BoundedJaccardSeeded(a.data(), a.size(), a.data(),
                                        a.size(), a.size(), a.size(),
                                        a.size(), 1.0),
                   1.0);
}

TEST(BoundedJaccardSeeded, AgreesWithExactJaccardOnRandomPairs) {
  // Unseeded and first-match-seeded calls across skews and thresholds:
  // exact when the pair could pass, -1 only when it provably cannot.
  Rng rng(515);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t la = 1 + rng.Index(40);
    // Mix equal-ish and heavily skewed sizes so the galloping path runs.
    const size_t lb = (trial % 3 == 0) ? la + 200 + rng.Index(300)
                                       : 1 + rng.Index(40);
    const Ids a = RandomSortedSet(rng, la, 80);
    const Ids b = RandomSortedSet(rng, lb, 600);
    const double threshold = 0.1 + 0.2 * static_cast<double>(trial % 5);
    const double exact = JaccardSimilarity(a, b);
    const double bounded = BoundedJaccard(a, b, threshold);
    if (bounded != -1.0) {
      EXPECT_DOUBLE_EQ(bounded, exact) << "trial=" << trial;
    } else {
      EXPECT_LT(exact + 1e-12, threshold) << "trial=" << trial;
    }
    // Seed at the first common element, as the joins do.
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() && j < b.size() && a[i] != b[j]) {
      (a[i] < b[j]) ? ++i : ++j;
    }
    if (i < a.size() && j < b.size()) {
      const double seeded = BoundedJaccardSeeded(
          a.data(), a.size(), b.data(), b.size(), i + 1, j + 1, 1,
          threshold);
      if (seeded != -1.0) {
        EXPECT_DOUBLE_EQ(seeded, exact) << "trial=" << trial;
      } else {
        EXPECT_LT(exact + 1e-12, threshold) << "trial=" << trial;
      }
    }
  }
}

TEST(BoundedJaccardSeeded, LastSharedTokenSeedIsBitIdentical) {
  // The joins' gather counts every shared prefix token and seeds verify
  // just past the last one with that count. Seeding at any shared token
  // with the number of shared tokens up to it must give JaccardSimilarity
  // bit for bit, or -1 only for a pair that provably misses the threshold.
  Rng rng(2008);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t la = 1 + rng.Index(40);
    const size_t lb = (trial % 4 == 0) ? la + 100 + rng.Index(300)
                                       : 1 + rng.Index(40);
    const Ids a = RandomSortedSet(rng, la, 60);
    const Ids b = RandomSortedSet(rng, lb, 200);
    const double exact = JaccardSimilarity(a, b);
    size_t i = 0;
    size_t j = 0;
    size_t shared = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (a[i] > b[j]) {
        ++j;
      } else {
        ++shared;
        for (const double threshold : {0.0, 0.05, 0.08, 0.3, 0.7}) {
          const double seeded =
              BoundedJaccardSeeded(a.data(), a.size(), b.data(), b.size(),
                                   i + 1, j + 1, shared, threshold);
          if (seeded != -1.0) {
            EXPECT_EQ(seeded, exact)
                << "trial=" << trial << " shared=" << shared;
          } else {
            EXPECT_GT(threshold, 0.0);
            EXPECT_LT(exact + 1e-12, threshold) << "trial=" << trial;
          }
        }
        ++i;
        ++j;
      }
    }
  }
}

TEST(MergeVerifyKernels, AllVariantsAgree) {
  // The dispatcher picks between these by shape; they must be
  // interchangeable wherever the entry guard admits them.
  Rng rng(717);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t la = 1 + rng.Index(30);
    const size_t lb = la + rng.Index(200);
    const Ids a = RandomSortedSet(rng, la, 60);
    const Ids b = RandomSortedSet(rng, lb, 400);
    const double threshold = 0.05 + 0.1 * static_cast<double>(trial % 4);
    const size_t required = RequiredOverlap(threshold, a.size(), b.size());
    if (required > std::min(a.size(), b.size())) continue;  // entry guard
    const double branchy = internal::MergeVerifyBranchy(
        a.data(), a.size(), b.data(), b.size(), 0, 0, 0, required);
    const double block = internal::MergeVerifyBlock(
        a.data(), a.size(), b.data(), b.size(), 0, 0, 0, required);
    const double gallop = internal::MergeVerifyGallop(
        a.data(), a.size(), b.data(), b.size(), 0, 0, 0, required);
    EXPECT_DOUBLE_EQ(branchy, block) << "trial=" << trial;
    EXPECT_DOUBLE_EQ(branchy, gallop) << "trial=" << trial;
    if (branchy != -1.0) {
      EXPECT_DOUBLE_EQ(branchy, JaccardSimilarity(a, b))
          << "trial=" << trial;
    }
  }
}

}  // namespace
}  // namespace crowdjoin
