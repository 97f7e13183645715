// The instant-decision schedule of LabelingSession (Section 5.2), driven
// through its incremental Start / OnPairLabeled / Finish protocol. Suite
// names keep the name of the engine this schedule grew out of, so the test
// IDs stay stable.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "core/labeling_session.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::Figure3Pairs;
using testing_fixtures::Figure3Truth;
using testing_fixtures::IdentityOrder;
using testing_fixtures::MakeRandomInstance;

LabelingSession InstantSession() {
  return LabelingSession(
      testing_fixtures::ScheduleOptions(SchedulePolicy::kInstantDecision));
}

// Starts `session` on `pairs` in identity order; the initial batch.
std::vector<int32_t> StartIdentity(LabelingSession& session,
                                   const CandidateSet& pairs) {
  return session.Start(&pairs, IdentityOrder(pairs.size())).value();
}

// Completes published pairs FIFO with truthful answers until nothing is
// available; the positions in completion order.
std::vector<int32_t> DrainFifo(LabelingSession& session,
                               const CandidateSet& pairs,
                               const GroundTruthOracle& truth,
                               const std::vector<int32_t>& initial) {
  std::deque<int32_t> queue(initial.begin(), initial.end());
  std::vector<int32_t> completed;
  while (!queue.empty()) {
    const int32_t pos = queue.front();
    queue.pop_front();
    completed.push_back(pos);
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    const std::vector<int32_t> fresh =
        session.OnPairLabeled(pos, truth.Truth(pair.a, pair.b)).value();
    queue.insert(queue.end(), fresh.begin(), fresh.end());
  }
  return completed;
}

TEST(InstantDecisionEngine, StartPublishesFirstBatch) {
  const CandidateSet pairs = Figure3Pairs();
  LabelingSession session = InstantSession();
  EXPECT_EQ(StartIdentity(session, pairs),
            (std::vector<int32_t>{0, 1, 2, 4, 5}));
  EXPECT_EQ(session.num_available(), 5);
  EXPECT_EQ(session.num_published(), 5);
}

TEST(InstantDecisionEngine, StartTwiceFails) {
  const CandidateSet pairs = Figure3Pairs();
  LabelingSession session = InstantSession();
  StartIdentity(session, pairs);
  EXPECT_EQ(session.Start(&pairs, IdentityOrder(pairs.size())).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(InstantDecisionEngine, OnPairLabeledProtocolErrors) {
  const CandidateSet pairs = Figure3Pairs();
  LabelingSession session = InstantSession();
  EXPECT_EQ(session.OnPairLabeled(0, Label::kMatching).status().code(),
            StatusCode::kFailedPrecondition);  // before Start
  StartIdentity(session, pairs);
  EXPECT_EQ(session.OnPairLabeled(99, Label::kMatching).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(session.OnPairLabeled(3, Label::kMatching).status().code(),
            StatusCode::kFailedPrecondition);  // p4 was never published
  ASSERT_TRUE(session.OnPairLabeled(0, Label::kMatching).ok());
  EXPECT_EQ(session.OnPairLabeled(0, Label::kMatching).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(InstantDecisionEngine, MatchingCompletionPublishesNothing) {
  // Section 5.2 (non-matching first rationale): completing a matching pair
  // never unlocks new publishable pairs.
  const CandidateSet pairs = Figure3Pairs();
  LabelingSession session = InstantSession();
  StartIdentity(session, pairs);
  const std::vector<int32_t> fresh =
      session.OnPairLabeled(0, Label::kMatching).value();
  EXPECT_TRUE(fresh.empty());
}

TEST(InstantDecisionEngine, Figure3FifoReproducesExample5) {
  const CandidateSet pairs = Figure3Pairs();
  LabelingSession session = InstantSession();
  const std::vector<int32_t> crowdsourced = DrainFifo(
      session, pairs, Figure3Truth(), StartIdentity(session, pairs));
  // p1,p2,p3,p5,p6 first; p7 unlocked by p6's non-matching completion.
  EXPECT_EQ(crowdsourced, (std::vector<int32_t>{0, 1, 2, 4, 5, 6}));

  const LabelingReport report = session.Finish().value();
  EXPECT_EQ(report.num_crowdsourced, 6);
  EXPECT_EQ(report.num_deduced, 2);
  EXPECT_EQ(report.outcomes[3]->label, Label::kMatching);      // p4
  EXPECT_EQ(report.outcomes[7]->label, Label::kNonMatching);   // p8
}

TEST(InstantDecisionEngine, FinishRequiresAllPublishedLabeled) {
  const CandidateSet pairs = Figure3Pairs();
  LabelingSession session = InstantSession();
  StartIdentity(session, pairs);
  EXPECT_EQ(session.Finish().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(InstantDecisionEngine, FinishIsIdempotent) {
  const CandidateSet pairs = {{0, 1, 0.9}, {1, 2, 0.8}, {0, 2, 0.7}};
  LabelingSession session = InstantSession();
  DrainFifo(session, pairs, GroundTruthOracle({0, 0, 0}),
            StartIdentity(session, pairs));
  const LabelingReport first = session.Finish().value();
  const LabelingReport second = session.Finish().value();
  EXPECT_TRUE(first == second);
}

// Properties of the instant-decision schedule under random completion
// orders: (a) every pair the sequential schedule crowdsources is also
// crowdsourced here; (b) the speculative overhead (pairs published before
// enough non-matching labels arrived to deduce them - the price of
// Algorithm 3's all-matching assumption) stays small; (c) with a correct
// oracle, every final label matches the truth.
class InstantDecisionPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InstantDecisionPropertyTest, BoundedOverheadAndCorrectLabels) {
  const auto instance = MakeRandomInstance(GetParam(), 24, 5, 80);
  GroundTruthOracle truth(instance.entity_of);
  const std::vector<int32_t> order = IdentityOrder(instance.pairs.size());

  GroundTruthOracle oracle_seq = truth;
  const LabelingReport sequential =
      testing_fixtures::RunSession({}, instance.pairs, order, oracle_seq)
          .value();

  LabelingSession session = InstantSession();
  Rng rng(GetParam() ^ 0xc0ffee);
  std::vector<int32_t> available = StartIdentity(session, instance.pairs);
  while (!available.empty()) {
    // Complete a random available pair (simulating AMT randomness).
    const size_t pick = rng.Index(available.size());
    const int32_t pos = available[pick];
    available.erase(available.begin() + static_cast<std::ptrdiff_t>(pick));
    const CandidatePair& pair = instance.pairs[static_cast<size_t>(pos)];
    const std::vector<int32_t> fresh =
        session.OnPairLabeled(pos, truth.Truth(pair.a, pair.b)).value();
    available.insert(available.end(), fresh.begin(), fresh.end());
  }
  const LabelingReport result = session.Finish().value();

  for (size_t i = 0; i < instance.pairs.size(); ++i) {
    EXPECT_EQ(result.outcomes[i]->label,
              truth.Truth(instance.pairs[i].a, instance.pairs[i].b))
        << "seed=" << GetParam() << " pair=" << i;
    if (sequential.outcomes[i]->source == LabelSource::kCrowdsourced) {
      EXPECT_EQ(result.outcomes[i]->source, LabelSource::kCrowdsourced)
          << "seed=" << GetParam() << " pair=" << i;
    }
  }
  EXPECT_GE(result.num_crowdsourced, sequential.num_crowdsourced);
  // Dense adversarial instances (many cross-entity pairs) show the largest
  // speculation overhead; the paper-shaped workloads of the bench harnesses
  // stay around 0.2%. A quarter of the sequential count is the sanity rail.
  EXPECT_LE(result.num_crowdsourced,
            sequential.num_crowdsourced +
                std::max<int64_t>(5, sequential.num_crowdsourced / 4))
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, InstantDecisionPropertyTest,
                         ::testing::Range<uint64_t>(300, 312));

}  // namespace
}  // namespace crowdjoin
