// The sequential (Section 3.2) and round-parallel (Algorithm 2, Section
// 5.1) schedules of LabelingSession on the paper's worked examples and on
// random instances. Suite names keep the names of the engines these
// schedules grew out of, so the test IDs stay stable.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/labeling_order.h"
#include "core/labeling_session.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::Figure3Pairs;
using testing_fixtures::Figure3Truth;
using testing_fixtures::IdentityOrder;
using testing_fixtures::MakeRandomInstance;
using testing_fixtures::RunSession;
using testing_fixtures::ScheduleOptions;

const LabelingSessionOptions kSequential{};
const LabelingSessionOptions kRoundParallel =
    ScheduleOptions(SchedulePolicy::kRoundParallel);

// --- Sequential schedule --------------------------------------------------

TEST(SequentialLabeler, IntroExampleOrderMatters) {
  // Section 3.1: pairs (o1,o2)=M, (o2,o3)=N, (o1,o3)=N.
  const CandidateSet pairs = {{0, 1, 0.9}, {1, 2, 0.5}, {0, 2, 0.4}};
  GroundTruthOracle truth({0, 0, 1});

  // Order w = <(o1,o2),(o2,o3),(o1,o3)> crowdsources two pairs.
  GroundTruthOracle oracle1 = truth;
  const LabelingReport good =
      RunSession(kSequential, pairs, {0, 1, 2}, oracle1).value();
  EXPECT_EQ(good.num_crowdsourced, 2);
  EXPECT_EQ(good.num_deduced, 1);
  EXPECT_EQ(good.outcomes[2]->source, LabelSource::kDeduced);
  EXPECT_EQ(good.outcomes[2]->label, Label::kNonMatching);

  // Order w' = <(o2,o3),(o1,o3),(o1,o2)> crowdsources all three.
  GroundTruthOracle oracle2 = truth;
  const LabelingReport bad =
      RunSession(kSequential, pairs, {1, 2, 0}, oracle2).value();
  EXPECT_EQ(bad.num_crowdsourced, 3);
  EXPECT_EQ(bad.num_deduced, 0);
}

TEST(SequentialLabeler, Figure3OptimalOrderCrowdsourcesSix) {
  // Example 2: six is the optimal number of crowdsourced pairs.
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  const std::vector<int32_t> order =
      MakeLabelingOrder(pairs, OrderKind::kOptimal, &truth, nullptr).value();
  GroundTruthOracle oracle = truth;
  const LabelingReport report =
      RunSession(kSequential, pairs, order, oracle).value();
  EXPECT_EQ(report.num_crowdsourced, 6);
  EXPECT_EQ(report.num_deduced, 2);
}

TEST(SequentialLabeler, Figure3ExpectedOrderCrowdsourcesSix) {
  // The likelihood order p1..p8 also achieves six on this instance.
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle oracle = Figure3Truth();
  const LabelingReport report =
      RunSession(kSequential, pairs, IdentityOrder(pairs.size()), oracle)
          .value();
  EXPECT_EQ(report.num_crowdsourced, 6);
  // p4 deduced matching from p1,p2; p8 deduced non-matching from p5,p6.
  EXPECT_EQ(report.outcomes[3]->source, LabelSource::kDeduced);
  EXPECT_EQ(report.outcomes[3]->label, Label::kMatching);
  EXPECT_EQ(report.outcomes[7]->source, LabelSource::kDeduced);
  EXPECT_EQ(report.outcomes[7]->label, Label::kNonMatching);
}

TEST(SequentialLabeler, AllLabelsAgreeWithTruth) {
  const auto instance = MakeRandomInstance(7, 30, 6, 120);
  GroundTruthOracle truth(instance.entity_of);
  GroundTruthOracle oracle = truth;
  const LabelingReport report =
      RunSession(kSequential, instance.pairs,
                 IdentityOrder(instance.pairs.size()), oracle)
          .value();
  for (size_t i = 0; i < instance.pairs.size(); ++i) {
    EXPECT_EQ(report.outcomes[i]->label,
              truth.Truth(instance.pairs[i].a, instance.pairs[i].b))
        << "pair " << i;
  }
  EXPECT_EQ(report.num_crowdsourced + report.num_deduced,
            static_cast<int64_t>(instance.pairs.size()));
  EXPECT_EQ(report.num_conflicts, 0);
}

TEST(SequentialLabeler, OracleQueriedOncePerCrowdsourcedPair) {
  const auto instance = MakeRandomInstance(11, 20, 4, 60);
  GroundTruthOracle oracle(instance.entity_of);
  const LabelingReport report =
      RunSession(kSequential, instance.pairs,
                 IdentityOrder(instance.pairs.size()), oracle)
          .value();
  EXPECT_EQ(oracle.num_queries(), report.num_crowdsourced);
}

TEST(SequentialLabeler, EmptyInput) {
  GroundTruthOracle oracle({});
  const LabelingReport report =
      RunSession(kSequential, {}, {}, oracle).value();
  EXPECT_EQ(report.num_crowdsourced, 0);
  EXPECT_EQ(report.num_deduced, 0);
  EXPECT_TRUE(report.outcomes.empty());
}

TEST(SequentialLabeler, DuplicateCandidatePairSecondIsDeduced) {
  const CandidateSet pairs = {{0, 1, 0.9}, {0, 1, 0.8}};
  GroundTruthOracle oracle({0, 0});
  const LabelingReport report =
      RunSession(kSequential, pairs, {0, 1}, oracle).value();
  EXPECT_EQ(report.num_crowdsourced, 1);
  EXPECT_EQ(report.outcomes[1]->source, LabelSource::kDeduced);
  EXPECT_EQ(report.outcomes[1]->label, Label::kMatching);
}

// Worst order on a single k-clique of matching objects still needs k-1
// crowdsourced pairs; optimal achieves the same (all pairs matching).
TEST(SequentialLabeler, CliqueNeedsSpanningTreeOnly) {
  CandidateSet pairs;
  constexpr int32_t kK = 10;
  for (int32_t a = 0; a < kK; ++a) {
    for (int32_t b = a + 1; b < kK; ++b) pairs.push_back({a, b, 0.9});
  }
  GroundTruthOracle oracle(std::vector<int32_t>(kK, 0));
  const LabelingReport report =
      RunSession(kSequential, pairs, IdentityOrder(pairs.size()), oracle)
          .value();
  EXPECT_EQ(report.num_crowdsourced, kK - 1);
  EXPECT_EQ(report.num_deduced,
            static_cast<int64_t>(pairs.size()) - (kK - 1));
}

// --- Algorithm 3 (the round-parallel publish scan) ------------------------

TEST(ParallelCrowdsourcedPairs, Example5FirstIteration) {
  // Section 5.1, Example 5: with nothing labeled, the first batch must be
  // {p1, p2, p3, p5, p6} (positions 0, 1, 2, 4, 5).
  const CandidateSet pairs = Figure3Pairs();
  std::vector<std::optional<Label>> labels(pairs.size());
  const std::vector<int32_t> batch =
      ParallelCrowdsourcedPairs(pairs, IdentityOrder(pairs.size()), labels);
  EXPECT_EQ(batch, (std::vector<int32_t>{0, 1, 2, 4, 5}));
}

TEST(ParallelCrowdsourcedPairs, Example5SecondIteration) {
  // After p1,p2,p3,p5,p6 are labeled and p4,p8 deduced, only p7 remains.
  const CandidateSet pairs = Figure3Pairs();
  std::vector<std::optional<Label>> labels(pairs.size());
  labels[0] = Label::kMatching;      // p1
  labels[1] = Label::kMatching;      // p2
  labels[2] = Label::kNonMatching;   // p3
  labels[3] = Label::kMatching;      // p4 (deduced from p1, p2)
  labels[4] = Label::kMatching;      // p5
  labels[5] = Label::kNonMatching;   // p6
  labels[7] = Label::kNonMatching;   // p8 (deduced from p5, p6)
  const std::vector<int32_t> batch =
      ParallelCrowdsourcedPairs(pairs, IdentityOrder(pairs.size()), labels);
  EXPECT_EQ(batch, (std::vector<int32_t>{6}));  // p7
}

TEST(ParallelCrowdsourcedPairs, ExcludesPublishedPairsFromOutput) {
  const CandidateSet pairs = Figure3Pairs();
  std::vector<std::optional<Label>> labels(pairs.size());
  std::vector<bool> published(pairs.size(), false);
  published[0] = published[2] = true;
  const std::vector<int32_t> batch = ParallelCrowdsourcedPairs(
      pairs, IdentityOrder(pairs.size()), labels, &published);
  EXPECT_EQ(batch, (std::vector<int32_t>{1, 4, 5}));
}

// --- Round-parallel schedule ----------------------------------------------

TEST(ParallelLabeler, Figure3RunsInTwoIterations) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle oracle = Figure3Truth();
  const LabelingReport report =
      RunSession(kRoundParallel, pairs, IdentityOrder(pairs.size()), oracle)
          .value();
  EXPECT_EQ(report.crowdsourced_per_iteration,
            (std::vector<int64_t>{5, 1}));
  EXPECT_EQ(report.num_crowdsourced, 6);
  EXPECT_EQ(report.num_deduced, 2);
}

TEST(ParallelLabeler, LabelsAgreeWithTruth) {
  const auto instance = MakeRandomInstance(3, 25, 5, 90);
  GroundTruthOracle truth(instance.entity_of);
  GroundTruthOracle oracle = truth;
  const LabelingReport report =
      RunSession(kRoundParallel, instance.pairs,
                 IdentityOrder(instance.pairs.size()), oracle)
          .value();
  for (size_t i = 0; i < instance.pairs.size(); ++i) {
    EXPECT_EQ(report.outcomes[i]->label,
              truth.Truth(instance.pairs[i].a, instance.pairs[i].b));
  }
}

TEST(ParallelLabeler, IterationSizesSumToCrowdsourcedCount) {
  const auto instance = MakeRandomInstance(17, 40, 7, 160);
  GroundTruthOracle oracle(instance.entity_of);
  const LabelingReport report =
      RunSession(kRoundParallel, instance.pairs,
                 IdentityOrder(instance.pairs.size()), oracle)
          .value();
  int64_t sum = 0;
  for (int64_t batch : report.crowdsourced_per_iteration) {
    EXPECT_GT(batch, 0);
    sum += batch;
  }
  EXPECT_EQ(sum, report.num_crowdsourced);
}

// The central equivalence of Section 5.1: on any order, the round-parallel
// schedule crowdsources exactly the same pairs as the sequential one (it
// only batches them).
class ParallelEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelEquivalenceTest, SameCrowdsourcedSetAsSequential) {
  const auto instance = MakeRandomInstance(GetParam(), 30, 6, 110);
  GroundTruthOracle truth(instance.entity_of);
  Rng rng(GetParam() ^ 0xfeed);
  for (OrderKind kind : {OrderKind::kExpected, OrderKind::kRandom,
                         OrderKind::kOptimal, OrderKind::kWorst}) {
    const std::vector<int32_t> order =
        MakeLabelingOrder(instance.pairs, kind, &truth, &rng).value();
    GroundTruthOracle oracle_seq = truth;
    const LabelingReport sequential =
        RunSession(kSequential, instance.pairs, order, oracle_seq).value();
    GroundTruthOracle oracle_par = truth;
    const LabelingReport parallel =
        RunSession(kRoundParallel, instance.pairs, order, oracle_par).value();
    ASSERT_EQ(sequential.outcomes.size(), parallel.outcomes.size());
    for (size_t i = 0; i < sequential.outcomes.size(); ++i) {
      // Superset property: every sequentially crowdsourced pair is also
      // crowdsourced by the round-parallel schedule. (The converse is only
      // approximate: Algorithm 3's all-matching assumption can publish a
      // pair one round before enough non-matching labels arrive to deduce
      // it, so the round-parallel run may crowdsource a handful extra.)
      if (sequential.outcomes[i]->source == LabelSource::kCrowdsourced) {
        EXPECT_EQ(parallel.outcomes[i]->source, LabelSource::kCrowdsourced)
            << "seed=" << GetParam() << " kind="
            << OrderKindToString(kind) << " pair=" << i;
      }
      EXPECT_EQ(sequential.outcomes[i]->label, parallel.outcomes[i]->label);
    }
    EXPECT_GE(parallel.num_crowdsourced, sequential.num_crowdsourced);
    // Dense adversarial instances show the largest speculation overhead;
    // the paper-shaped workloads of the bench harnesses show none at all
    // in the expected order. Ten percent is the sanity rail.
    EXPECT_LE(parallel.num_crowdsourced,
              sequential.num_crowdsourced +
                  std::max<int64_t>(3, sequential.num_crowdsourced / 10));
    EXPECT_LE(parallel.crowdsourced_per_iteration.size(),
              sequential.crowdsourced_per_iteration.size());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ParallelEquivalenceTest,
                         ::testing::Range<uint64_t>(200, 215));

}  // namespace
}  // namespace crowdjoin
