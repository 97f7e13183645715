// Unit tests for the unified LabelingSession: the policy matrix (schedule ×
// stop × one-to-one × input), the streaming drive, and the report invariants.
// Byte-level equivalence against frozen ports of the original engines
// lives in session_equivalence_test.cc.

#include "core/labeling_session.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "core/labeling_order.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::Figure3Pairs;
using testing_fixtures::Figure3Truth;
using testing_fixtures::IdentityOrder;
using testing_fixtures::MakeRandomInstance;
using testing_fixtures::ThreadSafeCountingOracle;

LabelingSession MakeSession(SchedulePolicy schedule, int num_threads = 1,
                            StopPolicy stop = StopPolicy::Unbounded()) {
  LabelingSessionOptions options;
  options.schedule = schedule;
  options.num_threads = num_threads;
  options.stop = stop;
  return LabelingSession(options);
}

// --- Policy matrix gating -------------------------------------------------

TEST(LabelingSession, OneToOneIsRejectedOutsideTheSequentialSchedule) {
  const CandidateSet pairs = Figure3Pairs();
  const std::vector<int32_t> order = IdentityOrder(pairs.size());
  GroundTruthOracle oracle = Figure3Truth();
  const BatchLabelFn label_all = [](const std::vector<int32_t>& batch)
      -> Result<std::vector<Label>> {
    return std::vector<Label>(batch.size(), Label::kMatching);
  };
  using EntryPoint = std::function<Status(LabelingSession&)>;
  const std::vector<std::tuple<std::string, SchedulePolicy, EntryPoint>>
      entry_points = {
          {"Run/round-parallel", SchedulePolicy::kRoundParallel,
           [&](LabelingSession& s) {
             return s.Run(pairs, order, oracle).status();
           }},
          {"Run/instant", SchedulePolicy::kInstantDecision,
           [&](LabelingSession& s) {
             return s.Run(pairs, order, oracle).status();
           }},
          {"RunWithBatchSource", SchedulePolicy::kRoundParallel,
           [&](LabelingSession& s) {
             return s.RunWithBatchSource(pairs, order, label_all).status();
           }},
          {"Start", SchedulePolicy::kInstantDecision,
           [&](LabelingSession& s) { return s.Start(&pairs, order).status(); }},
          {"RunStream/round-parallel", SchedulePolicy::kRoundParallel,
           [&](LabelingSession& s) {
             MaterializedCandidateStream stream(&pairs);
             return s.RunStream(stream, OrderKind::kExpected, oracle).status();
           }},
      };
  for (const auto& [name, schedule, call] : entry_points) {
    LabelingSessionOptions options;
    options.schedule = schedule;
    options.one_to_one = true;
    LabelingSession session(options);
    EXPECT_EQ(call(session).code(), StatusCode::kInvalidArgument) << name;
  }
  EXPECT_EQ(oracle.num_queries(), 0);
}

TEST(LabelingSession, InstantScheduleRejectsBudget) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle oracle = Figure3Truth();
  LabelingSession session =
      MakeSession(SchedulePolicy::kInstantDecision, 1, StopPolicy::Budget(3));
  EXPECT_EQ(session.Run(pairs, IdentityOrder(pairs.size()), oracle)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(LabelingSession, BatchSourceRequiresRoundParallel) {
  const CandidateSet pairs = Figure3Pairs();
  LabelingSession session = MakeSession(SchedulePolicy::kSequential);
  const auto result = session.RunWithBatchSource(
      pairs, IdentityOrder(pairs.size()),
      [](const std::vector<int32_t>& batch) -> Result<std::vector<Label>> {
        return std::vector<Label>(batch.size(), Label::kMatching);
      });
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// A batch source answering with the wrong number of labels is the
// caller's mistake: an error naming both counts, not an abort.
TEST(LabelingSession, BatchSourceWithWrongLabelCountIsError) {
  const CandidateSet pairs = Figure3Pairs();
  for (const int skew : {-1, 1}) {
    LabelingSession session = MakeSession(SchedulePolicy::kRoundParallel);
    size_t published = 0;
    const auto result = session.RunWithBatchSource(
        pairs, IdentityOrder(pairs.size()),
        [&](const std::vector<int32_t>& batch) -> Result<std::vector<Label>> {
          published = batch.size();
          return std::vector<Label>(batch.size() + skew, Label::kMatching);
        });
    ASSERT_GT(published, 0u);
    EXPECT_EQ(result.status(),
              Status::InvalidArgument(
                  "label source returned " +
                  std::to_string(published + skew) + " labels for a batch of " +
                  std::to_string(published) + " pairs"))
        << "skew " << skew;
  }
}

TEST(LabelingSession, StartRequiresInstantSchedule) {
  const CandidateSet pairs = Figure3Pairs();
  LabelingSession session = MakeSession(SchedulePolicy::kSequential);
  EXPECT_EQ(
      session.Start(&pairs, IdentityOrder(pairs.size())).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(LabelingSession, StartRejectsNullPairs) {
  LabelingSession session = MakeSession(SchedulePolicy::kInstantDecision);
  EXPECT_EQ(session.Start(nullptr, {}).status().code(),
            StatusCode::kInvalidArgument);
  // The rejected call leaves the session unstarted and usable.
  const CandidateSet pairs = Figure3Pairs();
  EXPECT_EQ(session.Start(&pairs, IdentityOrder(pairs.size()))->size(), 5u);
}

TEST(LabelingSession, StreamRejectsInstantSchedule) {
  const CandidateSet pairs = Figure3Pairs();
  MaterializedCandidateStream stream(&pairs);
  GroundTruthOracle oracle = Figure3Truth();
  LabelingSession session = MakeSession(SchedulePolicy::kInstantDecision);
  EXPECT_EQ(session.RunStream(stream, OrderKind::kExpected, oracle)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(LabelingSession, ValidatesOrderAtTheBoundary) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle oracle = Figure3Truth();
  // A repeated entry, a short order, an entry past the end, a negative one.
  const std::vector<std::vector<int32_t>> bad_orders = {
      {0, 0, 1, 2, 3, 4, 5, 6},
      {0, 1, 2, 3, 4, 5, 6},
      {0, 1, 2, 3, 4, 5, 6, 8},
      {0, 1, 2, 3, 4, 5, 6, -1}};
  for (SchedulePolicy schedule :
       {SchedulePolicy::kSequential, SchedulePolicy::kRoundParallel,
        SchedulePolicy::kInstantDecision}) {
    for (const std::vector<int32_t>& order : bad_orders) {
      LabelingSession session = MakeSession(schedule);
      EXPECT_EQ(session.Run(pairs, order, oracle).status().code(),
                StatusCode::kInvalidArgument)
          << SchedulePolicyToString(schedule) << " order size "
          << order.size();
    }
  }
  EXPECT_EQ(oracle.num_queries(), 0);
}

// --- Figure 3 through every schedule --------------------------------------

TEST(LabelingSession, Figure3EverySchedule) {
  const CandidateSet pairs = Figure3Pairs();
  for (SchedulePolicy schedule :
       {SchedulePolicy::kSequential, SchedulePolicy::kRoundParallel,
        SchedulePolicy::kInstantDecision}) {
    GroundTruthOracle oracle = Figure3Truth();
    LabelingSession session = MakeSession(schedule);
    const LabelingReport report =
        session.Run(pairs, IdentityOrder(pairs.size()), oracle).value();
    EXPECT_EQ(report.num_crowdsourced, 6) << SchedulePolicyToString(schedule);
    EXPECT_EQ(report.num_deduced, 2) << SchedulePolicyToString(schedule);
    EXPECT_EQ(report.num_unlabeled, 0) << SchedulePolicyToString(schedule);
    EXPECT_EQ(report.num_candidates, 8);
    EXPECT_EQ(oracle.num_queries(), report.num_crowdsourced);
  }
}

TEST(LabelingSession, ReportEqualAcrossThreadCounts) {
  const auto instance = MakeRandomInstance(91, 40, 8, 160);
  const auto order = IdentityOrder(instance.pairs.size());
  GroundTruthOracle truth(instance.entity_of);
  HashNoisyOracle base(&truth, 0.15, 0.15, 11);
  LabelingSession baseline_session =
      MakeSession(SchedulePolicy::kRoundParallel, 1);
  HashNoisyOracle oracle1 = base;
  const LabelingReport baseline =
      baseline_session.Run(instance.pairs, order, oracle1).value();
  for (int threads : {2, 4, 8}) {
    LabelingSession session =
        MakeSession(SchedulePolicy::kRoundParallel, threads);
    HashNoisyOracle oracle = base;
    const LabelingReport report =
        session.Run(instance.pairs, order, oracle).value();
    EXPECT_TRUE(report == baseline) << "threads=" << threads;
  }
}

TEST(LabelingSession, SessionIsReusableAcrossRuns) {
  const CandidateSet pairs = Figure3Pairs();
  for (SchedulePolicy schedule :
       {SchedulePolicy::kSequential, SchedulePolicy::kRoundParallel,
        SchedulePolicy::kInstantDecision}) {
    LabelingSession session = MakeSession(schedule);
    GroundTruthOracle oracle1 = Figure3Truth();
    const LabelingReport first =
        session.Run(pairs, IdentityOrder(pairs.size()), oracle1).value();
    GroundTruthOracle oracle2 = Figure3Truth();
    const LabelingReport second =
        session.Run(pairs, IdentityOrder(pairs.size()), oracle2).value();
    EXPECT_TRUE(first == second) << SchedulePolicyToString(schedule);
  }
}

// --- Budget stop policy ---------------------------------------------------

TEST(LabelingSession, BudgetCapsBothSchedules) {
  const auto instance = MakeRandomInstance(55, 30, 6, 120);
  const auto order = IdentityOrder(instance.pairs.size());
  for (SchedulePolicy schedule :
       {SchedulePolicy::kSequential, SchedulePolicy::kRoundParallel}) {
    for (int64_t budget : {0, 5, 25}) {
      GroundTruthOracle oracle(instance.entity_of);
      LabelingSession session =
          MakeSession(schedule, 1, StopPolicy::Budget(budget));
      const LabelingReport report =
          session.Run(instance.pairs, order, oracle).value();
      EXPECT_LE(report.num_crowdsourced, budget)
          << SchedulePolicyToString(schedule) << " budget=" << budget;
      EXPECT_EQ(oracle.num_queries(), report.num_crowdsourced);
      EXPECT_EQ(report.num_crowdsourced + report.num_deduced +
                    report.num_unlabeled,
                static_cast<int64_t>(instance.pairs.size()));
      // Unlabeled pairs have empty outcomes, labeled ones engaged.
      int64_t unlabeled = 0;
      for (const auto& outcome : report.outcomes) {
        if (!outcome.has_value()) ++unlabeled;
      }
      EXPECT_EQ(unlabeled, report.num_unlabeled);
    }
  }
}

TEST(LabelingSession, LargeBudgetMatchesUnbounded) {
  const auto instance = MakeRandomInstance(56, 30, 6, 120);
  const auto order = IdentityOrder(instance.pairs.size());
  for (SchedulePolicy schedule :
       {SchedulePolicy::kSequential, SchedulePolicy::kRoundParallel}) {
    GroundTruthOracle oracle1(instance.entity_of);
    LabelingSession unbounded = MakeSession(schedule);
    const LabelingReport base =
        unbounded.Run(instance.pairs, order, oracle1).value();
    GroundTruthOracle oracle2(instance.entity_of);
    LabelingSession capped =
        MakeSession(schedule, 1, StopPolicy::Budget(1 << 20));
    const LabelingReport rich =
        capped.Run(instance.pairs, order, oracle2).value();
    EXPECT_TRUE(base == rich) << SchedulePolicyToString(schedule);
  }
}

// --- One-to-one deduction --------------------------------------------------

TEST(LabelingSession, OneToOneRulePluginSavesCrowdsourcing) {
  // Bipartite: left {0,1}, right {2,3}; truth pairs 0-2 and 1-3.
  const CandidateSet pairs = {
      {0, 2, 0.9}, {0, 3, 0.8}, {1, 2, 0.7}, {1, 3, 0.6}};
  GroundTruthOracle oracle({0, 1, 0, 1});
  LabelingSessionOptions options;
  options.one_to_one = true;
  LabelingSession session(options);
  const LabelingReport report =
      session.Run(pairs, IdentityOrder(pairs.size()), oracle).value();
  EXPECT_EQ(report.num_crowdsourced, 2);
  EXPECT_EQ(report.num_one_to_one_deduced, 2);
  EXPECT_EQ(report.num_exclusivity_violations, 0);
  EXPECT_EQ(report.outcomes[1]->label, Label::kNonMatching);
  EXPECT_EQ(report.outcomes[1]->source, LabelSource::kDeduced);
  EXPECT_EQ(report.outcomes[3]->label, Label::kMatching);
  EXPECT_EQ(report.outcomes[3]->source, LabelSource::kCrowdsourced);
}

TEST(LabelingSession, OneToOneDeductionsFeedTransitivity) {
  // 0 matches 1; one-to-one rules out (0,2); transitivity must then deduce
  // (1,2) as non-matching without crowdsourcing it: one-to-one deductions
  // land in the cluster graph.
  const CandidateSet pairs = {{0, 1, 0.9}, {0, 2, 0.8}, {1, 2, 0.7}};
  GroundTruthOracle oracle({0, 0, 1});
  LabelingSessionOptions options;
  options.one_to_one = true;
  LabelingSession session(options);
  const LabelingReport report =
      session.Run(pairs, IdentityOrder(pairs.size()), oracle).value();
  EXPECT_EQ(report.num_crowdsourced, 1);
  EXPECT_EQ(report.num_one_to_one_deduced, 1);
  EXPECT_EQ(report.num_deduced, 2);
}

// --- Streaming drive ------------------------------------------------------

TEST(LabelingSession, SingleRoundStreamMatchesMaterializedRun) {
  // A one-round stream with the same order kind must be byte-identical to
  // the materialized run (modulo the round counter, identical by
  // construction here).
  const auto instance = MakeRandomInstance(77, 35, 7, 140);
  GroundTruthOracle truth(instance.entity_of);
  for (SchedulePolicy schedule :
       {SchedulePolicy::kSequential, SchedulePolicy::kRoundParallel}) {
    GroundTruthOracle oracle1 = truth;
    LabelingSession direct = MakeSession(schedule);
    const auto order = MakeLabelingOrder(instance.pairs, OrderKind::kExpected,
                                         nullptr, nullptr)
                           .value();
    const LabelingReport materialized =
        direct.Run(instance.pairs, order, oracle1).value();

    GroundTruthOracle oracle2 = truth;
    LabelingSession streamed = MakeSession(schedule);
    MaterializedCandidateStream stream(&instance.pairs);
    const LabelingReport report =
        streamed.RunStream(stream, OrderKind::kExpected, oracle2).value();
    EXPECT_TRUE(report == materialized) << SchedulePolicyToString(schedule);
  }
}

TEST(LabelingSession, ChunkedStreamCarriesDeductionAcrossRounds) {
  const auto instance = MakeRandomInstance(78, 30, 5, 150);
  GroundTruthOracle truth(instance.entity_of);
  for (SchedulePolicy schedule :
       {SchedulePolicy::kSequential, SchedulePolicy::kRoundParallel}) {
    GroundTruthOracle oracle = truth;
    LabelingSession session = MakeSession(schedule);
    MaterializedCandidateStream stream(&instance.pairs, /*round_size=*/20);
    const LabelingReport report =
        session.RunStream(stream, OrderKind::kExpected, oracle).value();
    EXPECT_EQ(report.num_stream_rounds,
              (static_cast<int64_t>(instance.pairs.size()) + 19) / 20);
    EXPECT_EQ(report.num_candidates,
              static_cast<int64_t>(instance.pairs.size()));
    EXPECT_EQ(report.num_unlabeled, 0);
    EXPECT_EQ(report.num_crowdsourced + report.num_deduced,
              report.num_candidates);
    // Transitivity must reach across rounds: a clustered instance needs
    // far fewer crowd answers than pairs.
    EXPECT_GT(report.num_deduced, 0) << SchedulePolicyToString(schedule);
    // With a perfect oracle every label matches ground truth, whatever the
    // round partition.
    for (size_t i = 0; i < instance.pairs.size(); ++i) {
      ASSERT_TRUE(report.outcomes[i].has_value());
      EXPECT_EQ(report.outcomes[i]->label,
                truth.Truth(instance.pairs[i].a, instance.pairs[i].b))
          << SchedulePolicyToString(schedule) << " pair " << i;
    }
  }
}

TEST(LabelingSession, ChunkedStreamThreadCountInvariant) {
  const auto instance = MakeRandomInstance(79, 30, 6, 150);
  GroundTruthOracle truth(instance.entity_of);
  LabelingSession baseline_session =
      MakeSession(SchedulePolicy::kRoundParallel, 1);
  GroundTruthOracle oracle1 = truth;
  MaterializedCandidateStream stream1(&instance.pairs, /*round_size=*/25);
  const LabelingReport baseline =
      baseline_session.RunStream(stream1, OrderKind::kExpected, oracle1)
          .value();
  for (int threads : {2, 4, 8}) {
    LabelingSession session =
        MakeSession(SchedulePolicy::kRoundParallel, threads);
    GroundTruthOracle oracle = truth;
    MaterializedCandidateStream stream(&instance.pairs, /*round_size=*/25);
    const LabelingReport report =
        session.RunStream(stream, OrderKind::kExpected, oracle).value();
    EXPECT_TRUE(report == baseline) << "threads=" << threads;
  }
}

TEST(LabelingSession, StreamingBudgetSpansRounds) {
  const auto instance = MakeRandomInstance(80, 30, 5, 150);
  GroundTruthOracle oracle(instance.entity_of);
  LabelingSession session = MakeSession(SchedulePolicy::kSequential, 1,
                                        StopPolicy::Budget(10));
  MaterializedCandidateStream stream(&instance.pairs, /*round_size=*/20);
  const LabelingReport report =
      session.RunStream(stream, OrderKind::kExpected, oracle).value();
  EXPECT_LE(report.num_crowdsourced, 10);
  EXPECT_EQ(oracle.num_queries(), report.num_crowdsourced);
  EXPECT_EQ(report.num_crowdsourced + report.num_deduced +
                report.num_unlabeled,
            static_cast<int64_t>(instance.pairs.size()));
}

TEST(LabelingSession, EmptyStreamAndEmptyRun) {
  GroundTruthOracle oracle({});
  const CandidateSet empty;
  LabelingSession session = MakeSession(SchedulePolicy::kSequential);
  MaterializedCandidateStream stream(&empty);
  const LabelingReport streamed =
      session.RunStream(stream, OrderKind::kExpected, oracle).value();
  EXPECT_EQ(streamed.num_candidates, 0);
  EXPECT_EQ(streamed.num_stream_rounds, 0);
  const LabelingReport direct = session.Run(empty, {}, oracle).value();
  EXPECT_EQ(direct.num_candidates, 0);
  EXPECT_TRUE(direct.outcomes.empty());
}

// --- Oracle accounting under the chunked stream ---------------------------

TEST(LabelingSession, StreamNeverAsksAPairTwice) {
  const auto instance = MakeRandomInstance(81, 28, 6, 130);
  ThreadSafeCountingOracle oracle(instance.entity_of);
  LabelingSession session = MakeSession(SchedulePolicy::kRoundParallel, 4);
  MaterializedCandidateStream stream(&instance.pairs, /*round_size=*/16);
  const LabelingReport report =
      session.RunStream(stream, OrderKind::kExpected, oracle).value();
  EXPECT_EQ(oracle.total_calls(), report.num_crowdsourced);
  EXPECT_LE(oracle.max_calls_per_pair(), 1);
}

}  // namespace
}  // namespace crowdjoin
