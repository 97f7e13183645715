#include "crowd/availability_sim.h"

#include <gtest/gtest.h>

#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::Figure3Pairs;
using testing_fixtures::Figure3Truth;
using testing_fixtures::IdentityOrder;
using testing_fixtures::MakeRandomInstance;

TEST(AvailabilitySim, RoundParallelDrainsToZeroBetweenRounds) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  Rng rng(1);
  const auto series =
      SimulateAvailability(pairs, IdentityOrder(pairs.size()), truth,
                           PublicationPolicy::kRoundParallel,
                           CompletionOrder::kRandom, rng)
          .value();
  // 6 crowdsourced pairs overall: 5 in round one, 1 in round two.
  ASSERT_EQ(series.size(), 6u);
  EXPECT_EQ(series[4].num_available, 0);  // end of round one
  EXPECT_EQ(series.back().num_crowdsourced, 6);
  EXPECT_EQ(series.back().num_available, 0);
}

TEST(AvailabilitySim, InstantDecisionKeepsCountsConsistent) {
  const auto instance = MakeRandomInstance(5, 20, 4, 60);
  GroundTruthOracle truth(instance.entity_of);
  Rng rng(2);
  const auto series =
      SimulateAvailability(instance.pairs,
                           IdentityOrder(instance.pairs.size()), truth,
                           PublicationPolicy::kInstantDecision,
                           CompletionOrder::kRandom, rng)
          .value();
  ASSERT_FALSE(series.empty());
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_GE(series[i].num_available, 0);
    EXPECT_EQ(series[i].num_crowdsourced, static_cast<int64_t>(i) + 1);
  }
  EXPECT_EQ(series.back().num_available, 0);
}

TEST(AvailabilitySim, PoliciesCrowdsourceSimilarTotals) {
  // ID may speculatively publish a few extra pairs, but totals must stay
  // within a few percent of the round-based algorithm's.
  const auto instance = MakeRandomInstance(6, 30, 6, 140);
  GroundTruthOracle truth(instance.entity_of);
  Rng rng1(3);
  Rng rng2(3);
  const auto round =
      SimulateAvailability(instance.pairs,
                           IdentityOrder(instance.pairs.size()), truth,
                           PublicationPolicy::kRoundParallel,
                           CompletionOrder::kRandom, rng1)
          .value();
  const auto instant =
      SimulateAvailability(instance.pairs,
                           IdentityOrder(instance.pairs.size()), truth,
                           PublicationPolicy::kInstantDecision,
                           CompletionOrder::kRandom, rng2)
          .value();
  const double round_total =
      static_cast<double>(round.back().num_crowdsourced);
  const double instant_total =
      static_cast<double>(instant.back().num_crowdsourced);
  EXPECT_GE(instant_total, round_total);          // never fewer
  EXPECT_LE(instant_total, 1.10 * round_total);   // but close
}

TEST(AvailabilitySim, NonMatchingFirstKeepsMoreAvailable) {
  // The non-matching-first advantage is workload dependent (it front-loads
  // the completions that unlock new publishes); it shows on
  // matching-dominated, clustered candidate sets like the paper's Paper
  // dataset, which this instance mimics (few large entities).
  const auto instance = MakeRandomInstance(9, 60, 3, 500);
  GroundTruthOracle truth(instance.entity_of);
  Rng rng1(4);
  Rng rng2(4);
  const auto random_order =
      SimulateAvailability(instance.pairs,
                           IdentityOrder(instance.pairs.size()), truth,
                           PublicationPolicy::kInstantDecision,
                           CompletionOrder::kRandom, rng1)
          .value();
  const auto nf_order =
      SimulateAvailability(instance.pairs,
                           IdentityOrder(instance.pairs.size()), truth,
                           PublicationPolicy::kInstantDecision,
                           CompletionOrder::kNonMatchingFirst, rng2)
          .value();
  // Compare mean availability over the common prefix.
  const size_t common = std::min(random_order.size(), nf_order.size());
  ASSERT_GT(common, 0u);
  double random_mean = 0.0;
  double nf_mean = 0.0;
  for (size_t i = 0; i < common; ++i) {
    random_mean += static_cast<double>(random_order[i].num_available);
    nf_mean += static_cast<double>(nf_order[i].num_available);
  }
  EXPECT_GE(nf_mean, random_mean);
}

TEST(AvailabilitySim, EmptyCandidateSet) {
  GroundTruthOracle truth({});
  Rng rng(5);
  const auto series =
      SimulateAvailability({}, {}, truth, PublicationPolicy::kInstantDecision,
                           CompletionOrder::kRandom, rng)
          .value();
  EXPECT_TRUE(series.empty());
}

}  // namespace
}  // namespace crowdjoin
