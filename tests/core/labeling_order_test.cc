#include "core/labeling_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "eval/workbench.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::Figure3Pairs;
using testing_fixtures::Figure3Truth;

bool IsPermutation(const std::vector<int32_t>& order, size_t n) {
  if (order.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (int32_t pos : order) {
    if (pos < 0 || static_cast<size_t>(pos) >= n) return false;
    if (seen[static_cast<size_t>(pos)]) return false;
    seen[static_cast<size_t>(pos)] = true;
  }
  return true;
}

TEST(LabelingOrder, ExpectedOrderSortsByLikelihoodDescending) {
  const CandidateSet pairs = {{0, 1, 0.3}, {1, 2, 0.9}, {2, 3, 0.6}};
  const std::vector<int32_t> order =
      MakeLabelingOrder(pairs, OrderKind::kExpected, nullptr, nullptr)
          .value();
  EXPECT_EQ(order, (std::vector<int32_t>{1, 2, 0}));
}

TEST(LabelingOrder, ExpectedOrderTieBreaksByPosition) {
  const CandidateSet pairs = {{0, 1, 0.5}, {1, 2, 0.5}, {2, 3, 0.5}};
  const std::vector<int32_t> order =
      MakeLabelingOrder(pairs, OrderKind::kExpected, nullptr, nullptr)
          .value();
  EXPECT_EQ(order, (std::vector<int32_t>{0, 1, 2}));
}

// The orders as an index sort with the comparator they were first
// written with: group first (optimal/worst), then decreasing likelihood,
// then position.
std::vector<int32_t> ReferenceOrder(const CandidateSet& pairs, OrderKind kind,
                                    const GroundTruthOracle* truth) {
  std::vector<int32_t> order(pairs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  const Label first_group =
      kind == OrderKind::kOptimal ? Label::kMatching : Label::kNonMatching;
  std::sort(order.begin(), order.end(), [&](int32_t x, int32_t y) {
    const CandidatePair& px = pairs[static_cast<size_t>(x)];
    const CandidatePair& py = pairs[static_cast<size_t>(y)];
    if (kind != OrderKind::kExpected) {
      const bool gx = truth->Truth(px.a, px.b) == first_group;
      const bool gy = truth->Truth(py.a, py.b) == first_group;
      if (gx != gy) return gx;
    }
    if (px.likelihood != py.likelihood) return px.likelihood > py.likelihood;
    return x < y;
  });
  return order;
}

TEST(LabelingOrder, TiesAndSignedZerosMatchTheIndexSort) {
  const double inf = std::numeric_limits<double>::infinity();
  const CandidateSet pairs = {
      {0, 1, 0.5},  {1, 2, -0.0}, {2, 3, 0.0},     {3, 4, 0.5},
      {4, 5, 0.0},  {5, 6, -0.0}, {6, 7, 1.0},     {7, 8, -0.5},
      {8, 9, 1e-300}, {9, 0, -1e-300}, {1, 3, inf}, {2, 4, -inf},
      {3, 5, 0.5},  {4, 6, -0.5}, {5, 7, 0.99}};
  const std::vector<int32_t> order =
      MakeLabelingOrder(pairs, OrderKind::kExpected, nullptr, nullptr).value();
  EXPECT_EQ(order, ReferenceOrder(pairs, OrderKind::kExpected, nullptr));
  // +0.0 and -0.0 are one likelihood: positions 1, 2, 4, 5 in order.
  const auto zero = std::find(order.begin(), order.end(), 1);
  ASSERT_LE(zero + 4, order.end());
  EXPECT_EQ(std::vector<int32_t>(zero, zero + 4),
            (std::vector<int32_t>{1, 2, 4, 5}));
  GroundTruthOracle truth({0, 0, 1, 1, 0, 2, 2, 0, 1, 0});
  for (const OrderKind kind : {OrderKind::kOptimal, OrderKind::kWorst}) {
    EXPECT_EQ(MakeLabelingOrder(pairs, kind, &truth, nullptr).value(),
              ReferenceOrder(pairs, kind, &truth))
        << OrderKindToString(kind);
  }
}

TEST(LabelingOrder, PaperWorkbenchMatchesTheIndexSort) {
  const ExperimentInput input = MakePaperExperimentInput(42).value();
  const GroundTruthOracle truth(input.dataset.entity_of);
  for (const double threshold : {0.1, 0.4}) {
    const CandidateSet pairs = FilterByThreshold(input.candidates, threshold);
    ASSERT_GT(pairs.size(), 10000u);
    for (const OrderKind kind :
         {OrderKind::kExpected, OrderKind::kOptimal, OrderKind::kWorst}) {
      EXPECT_EQ(MakeLabelingOrder(pairs, kind, &truth, nullptr).value(),
                ReferenceOrder(pairs, kind, &truth))
          << OrderKindToString(kind) << " at " << threshold;
    }
  }
}

TEST(LabelingOrder, OptimalPutsMatchingFirst) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  const std::vector<int32_t> order =
      MakeLabelingOrder(pairs, OrderKind::kOptimal, &truth, nullptr).value();
  ASSERT_TRUE(IsPermutation(order, pairs.size()));
  bool seen_non_matching = false;
  for (int32_t pos : order) {
    const auto& pair = pairs[static_cast<size_t>(pos)];
    const bool matching = truth.Truth(pair.a, pair.b) == Label::kMatching;
    if (!matching) seen_non_matching = true;
    EXPECT_FALSE(matching && seen_non_matching)
        << "matching pair after a non-matching pair at position " << pos;
  }
}

TEST(LabelingOrder, WorstPutsNonMatchingFirst) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  const std::vector<int32_t> order =
      MakeLabelingOrder(pairs, OrderKind::kWorst, &truth, nullptr).value();
  ASSERT_TRUE(IsPermutation(order, pairs.size()));
  bool seen_matching = false;
  for (int32_t pos : order) {
    const auto& pair = pairs[static_cast<size_t>(pos)];
    const bool matching = truth.Truth(pair.a, pair.b) == Label::kMatching;
    if (matching) seen_matching = true;
    EXPECT_FALSE(!matching && seen_matching);
  }
}

TEST(LabelingOrder, RandomOrderIsDeterministicPerSeed) {
  const CandidateSet pairs = Figure3Pairs();
  Rng rng1(99);
  Rng rng2(99);
  Rng rng3(100);
  const auto order1 =
      MakeLabelingOrder(pairs, OrderKind::kRandom, nullptr, &rng1).value();
  const auto order2 =
      MakeLabelingOrder(pairs, OrderKind::kRandom, nullptr, &rng2).value();
  const auto order3 =
      MakeLabelingOrder(pairs, OrderKind::kRandom, nullptr, &rng3).value();
  EXPECT_EQ(order1, order2);
  EXPECT_TRUE(IsPermutation(order1, pairs.size()));
  EXPECT_TRUE(IsPermutation(order3, pairs.size()));
  EXPECT_NE(order1, order3);  // overwhelmingly likely for 8! permutations
}

TEST(LabelingOrder, MissingInputsAreErrors) {
  const CandidateSet pairs = Figure3Pairs();
  EXPECT_EQ(MakeLabelingOrder(pairs, OrderKind::kOptimal, nullptr, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeLabelingOrder(pairs, OrderKind::kWorst, nullptr, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeLabelingOrder(pairs, OrderKind::kRandom, nullptr, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(LabelingOrder, EmptyCandidateSet) {
  const auto order =
      MakeLabelingOrder({}, OrderKind::kExpected, nullptr, nullptr).value();
  EXPECT_TRUE(order.empty());
}

TEST(LabelingOrder, NamesAreStable) {
  EXPECT_EQ(OrderKindToString(OrderKind::kOptimal), "Optimal Order");
  EXPECT_EQ(OrderKindToString(OrderKind::kExpected), "Expected Order");
  EXPECT_EQ(OrderKindToString(OrderKind::kRandom), "Random Order");
  EXPECT_EQ(OrderKindToString(OrderKind::kWorst), "Worst Order");
}

}  // namespace
}  // namespace crowdjoin
