// The sequential schedule of LabelingSession under a budget stop policy
// (the Whang et al. [27] setting) and with one-to-one deduction asked
// after transitivity (the paper's Section 8 future work). Suite names keep
// the names of the engines these cells grew out of, so the test IDs stay
// stable.

#include <gtest/gtest.h>

#include "core/labeling_session.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::Figure3Pairs;
using testing_fixtures::Figure3Truth;
using testing_fixtures::IdentityOrder;
using testing_fixtures::RunSession;

// A sequential run over `pairs` in identity order, capped at `budget`
// crowdsourced pairs.
LabelingReport RunBudget(const CandidateSet& pairs, int64_t budget,
                         LabelOracle& oracle) {
  LabelingSessionOptions options;
  options.stop = StopPolicy::Budget(budget);
  return RunSession(options, pairs, IdentityOrder(pairs.size()), oracle)
      .value();
}

// A sequential run over `pairs` in identity order with one-to-one
// deduction on.
LabelingReport RunOneToOne(const CandidateSet& pairs, LabelOracle& oracle) {
  LabelingSessionOptions options;
  options.one_to_one = true;
  return RunSession(options, pairs, IdentityOrder(pairs.size()), oracle)
      .value();
}

// --- Budget stop policy ---------------------------------------------------

TEST(BudgetLabeler, ZeroBudgetLabelsNothing) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle oracle = Figure3Truth();
  const LabelingReport report = RunBudget(pairs, 0, oracle);
  EXPECT_EQ(report.num_crowdsourced, 0);
  EXPECT_EQ(report.num_deduced, 0);
  EXPECT_EQ(report.num_unlabeled, static_cast<int64_t>(pairs.size()));
  EXPECT_EQ(oracle.num_queries(), 0);
}

TEST(BudgetLabeler, LargeBudgetMatchesSequentialLabeler) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  GroundTruthOracle oracle1 = truth;
  const LabelingReport budgeted = RunBudget(pairs, 1000, oracle1);
  GroundTruthOracle oracle2 = truth;
  const LabelingReport full =
      RunSession({}, pairs, IdentityOrder(pairs.size()), oracle2).value();
  EXPECT_EQ(budgeted.num_crowdsourced, full.num_crowdsourced);
  EXPECT_EQ(budgeted.num_deduced, full.num_deduced);
  EXPECT_EQ(budgeted.num_unlabeled, 0);
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(budgeted.outcomes[i].has_value());
    EXPECT_EQ(budgeted.outcomes[i]->label, full.outcomes[i]->label);
  }
}

TEST(BudgetLabeler, DeductionContinuesAfterExhaustion) {
  // Budget 2 covers p1, p2 in the Figure 3 order; p4 = (o1,o3) is later in
  // the order but still deducible from the two purchased labels.
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle oracle = Figure3Truth();
  const LabelingReport report = RunBudget(pairs, 2, oracle);
  EXPECT_EQ(report.num_crowdsourced, 2);
  EXPECT_EQ(oracle.num_queries(), 2);
  ASSERT_TRUE(report.outcomes[3].has_value());  // p4 deduced
  EXPECT_EQ(report.outcomes[3]->label, Label::kMatching);
  EXPECT_EQ(report.outcomes[3]->source, LabelSource::kDeduced);
  EXPECT_FALSE(report.outcomes[6].has_value());  // p7 unreachable
  EXPECT_EQ(report.num_crowdsourced + report.num_deduced +
                report.num_unlabeled,
            static_cast<int64_t>(pairs.size()));
}

TEST(BudgetLabeler, MoreBudgetNeverLabelsFewerPairs) {
  const auto instance = testing_fixtures::MakeRandomInstance(55, 20, 4, 60);
  GroundTruthOracle truth(instance.entity_of);
  int64_t previous_labeled = -1;
  for (int64_t budget : {0, 5, 10, 20, 40, 60}) {
    GroundTruthOracle oracle = truth;
    const LabelingReport report = RunBudget(instance.pairs, budget, oracle);
    const int64_t labeled = report.num_crowdsourced + report.num_deduced;
    EXPECT_GE(labeled, previous_labeled) << "budget=" << budget;
    previous_labeled = labeled;
  }
}

TEST(StopPolicy, NegativeBudgetClampsToZero) {
  // A bounded request never turns into an unbounded run: a negative budget
  // buys no crowd answers at all, exactly like a zero budget.
  const StopPolicy stop = StopPolicy::Budget(-1);
  EXPECT_TRUE(stop.bounded());
  EXPECT_EQ(stop.budget, 0);

  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle negative_oracle = Figure3Truth();
  GroundTruthOracle zero_oracle = Figure3Truth();
  const LabelingReport negative = RunBudget(pairs, -1, negative_oracle);
  EXPECT_EQ(negative.num_unlabeled, static_cast<int64_t>(pairs.size()));
  EXPECT_EQ(negative_oracle.num_queries(), 0);
  EXPECT_TRUE(negative == RunBudget(pairs, 0, zero_oracle));
}

// --- One-to-one deduction -------------------------------------------------

TEST(OneToOneLabeler, MatchExcludesOtherPartners) {
  // Bipartite: left {0,1}, right {2,3}; truth pairs 0-2 and 1-3.
  const CandidateSet pairs = {
      {0, 2, 0.9},  // true match, crowdsourced
      {0, 3, 0.8},  // one-to-one deduces non-matching (0 already matched)
      {1, 2, 0.7},  // one-to-one deduces non-matching (2 already matched)
      {1, 3, 0.6},  // must still be crowdsourced
  };
  GroundTruthOracle oracle({0, 1, 0, 1});
  const LabelingReport report = RunOneToOne(pairs, oracle);
  EXPECT_EQ(report.num_crowdsourced, 2);
  EXPECT_EQ(report.num_one_to_one_deduced, 2);
  EXPECT_EQ(report.num_exclusivity_violations, 0);
  EXPECT_EQ(report.outcomes[1]->label, Label::kNonMatching);
  EXPECT_EQ(report.outcomes[1]->source, LabelSource::kDeduced);
  EXPECT_EQ(report.outcomes[3]->label, Label::kMatching);
  EXPECT_EQ(report.outcomes[3]->source, LabelSource::kCrowdsourced);
}

TEST(OneToOneLabeler, TransitiveDeductionTakesPrecedence) {
  // Left {0,1}, right {2,3}; truth: 0<->2 match, 1 and 3 are singletons.
  // (2,3) is decidable by *both* rules once (0,3)=N and (0,2)=M are known;
  // the session must attribute it to transitivity, not one-to-one.
  const CandidateSet pairs = {{0, 3, 0.9}, {0, 2, 0.8}, {2, 3, 0.7}};
  GroundTruthOracle oracle({0, 1, 0, 2});
  const LabelingReport report = RunOneToOne(pairs, oracle);
  EXPECT_EQ(report.num_crowdsourced, 2);
  EXPECT_EQ(report.num_deduced, 1);
  EXPECT_EQ(report.num_one_to_one_deduced, 0);
  EXPECT_EQ(report.outcomes[2]->label, Label::kNonMatching);
  EXPECT_EQ(report.outcomes[2]->source, LabelSource::kDeduced);
}

TEST(OneToOneLabeler, OneToOneEdgesFeedTransitivity) {
  // 0 matches 1; one-to-one rules out (0,2); transitivity must then deduce
  // (1,2) as non-matching without crowdsourcing it.
  const CandidateSet pairs = {{0, 1, 0.9}, {0, 2, 0.8}, {1, 2, 0.7}};
  GroundTruthOracle oracle({0, 0, 1});
  const LabelingReport report = RunOneToOne(pairs, oracle);
  EXPECT_EQ(report.num_crowdsourced, 1);
  EXPECT_EQ(report.num_one_to_one_deduced, 1);
  EXPECT_EQ(report.outcomes[2]->label, Label::kNonMatching);
  EXPECT_EQ(report.outcomes[2]->source, LabelSource::kDeduced);
}

TEST(OneToOneLabeler, SavesAtLeastAsMuchAsPlainSequentialOnOneToOneData) {
  // Strictly 1-1 ground truth: entities {0,5},{1,6},{2,7},{3,8},{4,9}.
  std::vector<int32_t> entity = {0, 1, 2, 3, 4, 0, 1, 2, 3, 4};
  CandidateSet pairs;
  for (ObjectId a = 0; a < 5; ++a) {
    for (ObjectId b = 5; b < 10; ++b) {
      pairs.push_back({a, b, entity[static_cast<size_t>(a)] ==
                                     entity[static_cast<size_t>(b)]
                                 ? 0.9
                                 : 0.4});
    }
  }
  GroundTruthOracle truth(entity);
  GroundTruthOracle oracle1 = truth;
  const LabelingReport plain =
      RunSession({}, pairs, IdentityOrder(pairs.size()), oracle1).value();
  GroundTruthOracle oracle2 = truth;
  const LabelingReport one_to_one = RunOneToOne(pairs, oracle2);
  EXPECT_LT(one_to_one.num_crowdsourced, plain.num_crowdsourced);
  // All labels still correct.
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(one_to_one.outcomes[i]->label,
              truth.Truth(pairs[i].a, pairs[i].b));
  }
}

TEST(OneToOneLabeler, ViolationDetectedOnNonOneToOneData) {
  // Truth has a 3-cluster {0,1,2}: after 0-1 matches, (0,2) is ruled out
  // by exclusivity -> a false non-matching.
  const CandidateSet pairs = {{0, 1, 0.9}, {0, 2, 0.8}};
  GroundTruthOracle oracle({0, 0, 0});
  const LabelingReport report = RunOneToOne(pairs, oracle);
  // The second pair is (wrongly) deduced non-matching: the price of
  // assuming one-to-one on non-one-to-one data.
  EXPECT_EQ(report.outcomes[1]->label, Label::kNonMatching);
  EXPECT_EQ(report.num_one_to_one_deduced, 1);
}

}  // namespace
}  // namespace crowdjoin
