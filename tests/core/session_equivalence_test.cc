// The session equivalence suite: LabelingSession must reproduce the five
// original labeling engines **byte for byte** at every (schedule, deduction,
// stop) policy combination, thread count, order kind, and conflict policy.
//
// The references below are verbatim ports of the pre-session engine
// implementations (SequentialLabeler, ParallelLabeler, BudgetLabeler,
// OneToOneLabeler, InstantDecisionEngine as of the seed), kept here as the
// frozen ground truth. They return the file-local `ReferenceResult`, the
// result shape those engines produced.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <optional>

#include "core/labeling_order.h"
#include "core/labeling_session.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::Figure3Pairs;
using testing_fixtures::IdentityOrder;
using testing_fixtures::MakeRandomInstance;
using testing_fixtures::RandomInstance;

// The result shape the original engines returned: one outcome per
// candidate position, every pair labeled.
struct ReferenceResult {
  std::vector<PairOutcome> outcomes;
  int64_t num_crowdsourced = 0;
  int64_t num_deduced = 0;
  int64_t num_conflicts = 0;
  std::vector<int64_t> crowdsourced_per_iteration;
};

// Field-by-field comparison of a session report against a reference:
// outcomes, crowdsourced / deduced / conflict counts, per-iteration sizes.
::testing::AssertionResult Matches(const LabelingReport& actual,
                                   const ReferenceResult& expected) {
  if (actual.outcomes.size() != expected.outcomes.size()) {
    return ::testing::AssertionFailure()
           << actual.outcomes.size() << " outcomes, expected "
           << expected.outcomes.size();
  }
  for (size_t i = 0; i < expected.outcomes.size(); ++i) {
    if (actual.outcomes[i] != expected.outcomes[i]) {
      return ::testing::AssertionFailure() << "outcome " << i << " differs";
    }
  }
  if (actual.num_crowdsourced != expected.num_crowdsourced ||
      actual.num_deduced != expected.num_deduced ||
      actual.num_conflicts != expected.num_conflicts) {
    return ::testing::AssertionFailure()
           << "counts (crowdsourced, deduced, conflicts) = ("
           << actual.num_crowdsourced << ", " << actual.num_deduced << ", "
           << actual.num_conflicts << "), expected ("
           << expected.num_crowdsourced << ", " << expected.num_deduced
           << ", " << expected.num_conflicts << ")";
  }
  if (actual.crowdsourced_per_iteration !=
      expected.crowdsourced_per_iteration) {
    return ::testing::AssertionFailure() << "per-iteration sizes differ";
  }
  return ::testing::AssertionSuccess();
}

// --- Frozen reference implementations (seed code, verbatim) ---------------

ReferenceResult ReferenceSequential(const CandidateSet& pairs,
                                    const std::vector<int32_t>& order,
                                    LabelOracle& oracle,
                                    ConflictPolicy policy) {
  ReferenceResult result;
  result.outcomes.resize(pairs.size());
  ClusterGraph graph(NumObjectsSpanned(pairs), policy);
  for (int32_t pos : order) {
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    const Deduction deduction = graph.Deduce(pair.a, pair.b);
    PairOutcome& outcome = result.outcomes[static_cast<size_t>(pos)];
    if (deduction == Deduction::kUndeduced) {
      outcome.label = oracle.GetLabel(pair.a, pair.b);
      outcome.source = LabelSource::kCrowdsourced;
      ++result.num_crowdsourced;
      result.crowdsourced_per_iteration.push_back(1);
      graph.Add(pair.a, pair.b, outcome.label);
    } else {
      outcome.label = DeductionToLabel(deduction);
      outcome.source = LabelSource::kDeduced;
      ++result.num_deduced;
    }
  }
  result.num_conflicts = graph.num_conflicts();
  return result;
}

ReferenceResult ReferenceRoundParallel(const CandidateSet& pairs,
                                       const std::vector<int32_t>& order,
                                       LabelOracle& oracle,
                                       ConflictPolicy policy) {
  ReferenceResult result;
  result.outcomes.resize(pairs.size());
  std::vector<std::optional<Label>> labels(pairs.size());
  size_t num_labeled = 0;
  while (num_labeled < pairs.size()) {
    const std::vector<int32_t> batch = ParallelCrowdsourcedPairs(
        pairs, order, labels, /*exclude_from_output=*/nullptr, policy);
    EXPECT_FALSE(batch.empty());
    if (batch.empty()) break;
    for (int32_t pos : batch) {
      const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
      const Label label = oracle.GetLabel(pair.a, pair.b);
      labels[static_cast<size_t>(pos)] = label;
      result.outcomes[static_cast<size_t>(pos)] = {
          label, LabelSource::kCrowdsourced};
      ++result.num_crowdsourced;
      ++num_labeled;
    }
    result.crowdsourced_per_iteration.push_back(
        static_cast<int64_t>(batch.size()));
    ClusterGraph graph(NumObjectsSpanned(pairs), policy);
    for (int32_t pos : order) {
      const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
      auto& label = labels[static_cast<size_t>(pos)];
      if (label.has_value()) {
        graph.Add(pair.a, pair.b, *label);
        continue;
      }
      const Deduction deduction = graph.Deduce(pair.a, pair.b);
      if (deduction != Deduction::kUndeduced) {
        label = DeductionToLabel(deduction);
        result.outcomes[static_cast<size_t>(pos)] = {*label,
                                                     LabelSource::kDeduced};
        ++result.num_deduced;
        ++num_labeled;
      }
    }
    result.num_conflicts = graph.num_conflicts();
  }
  return result;
}

struct ReferenceBudgetResult {
  std::vector<std::optional<PairOutcome>> outcomes;
  int64_t num_crowdsourced = 0;
  int64_t num_deduced = 0;
  int64_t num_unlabeled = 0;
};

ReferenceBudgetResult ReferenceBudget(const CandidateSet& pairs,
                                      const std::vector<int32_t>& order,
                                      int64_t budget, LabelOracle& oracle) {
  ReferenceBudgetResult result;
  result.outcomes.resize(pairs.size());
  ClusterGraph graph(NumObjectsSpanned(pairs));
  for (int32_t pos : order) {
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    auto& outcome = result.outcomes[static_cast<size_t>(pos)];
    const Deduction deduction = graph.Deduce(pair.a, pair.b);
    if (deduction != Deduction::kUndeduced) {
      outcome = PairOutcome{DeductionToLabel(deduction),
                            LabelSource::kDeduced};
      ++result.num_deduced;
      continue;
    }
    if (result.num_crowdsourced >= budget) {
      ++result.num_unlabeled;
      continue;
    }
    const Label label = oracle.GetLabel(pair.a, pair.b);
    outcome = PairOutcome{label, LabelSource::kCrowdsourced};
    ++result.num_crowdsourced;
    graph.Add(pair.a, pair.b, label);
  }
  return result;
}

struct ReferenceOneToOneResult {
  ReferenceResult labeling;
  int64_t num_one_to_one_deduced = 0;
  int64_t num_exclusivity_violations = 0;
};

ReferenceOneToOneResult ReferenceOneToOne(const CandidateSet& pairs,
                                          const std::vector<int32_t>& order,
                                          LabelOracle& oracle) {
  ReferenceOneToOneResult result;
  result.labeling.outcomes.resize(pairs.size());
  const int32_t num_objects = NumObjectsSpanned(pairs);
  ClusterGraph graph(num_objects);
  std::vector<bool> matched(static_cast<size_t>(num_objects), false);
  for (int32_t pos : order) {
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    PairOutcome& outcome = result.labeling.outcomes[static_cast<size_t>(pos)];
    const Deduction deduction = graph.Deduce(pair.a, pair.b);
    if (deduction != Deduction::kUndeduced) {
      outcome.label = DeductionToLabel(deduction);
      outcome.source = LabelSource::kDeduced;
      ++result.labeling.num_deduced;
      continue;
    }
    if (matched[static_cast<size_t>(pair.a)] ||
        matched[static_cast<size_t>(pair.b)]) {
      outcome.label = Label::kNonMatching;
      outcome.source = LabelSource::kDeduced;
      ++result.labeling.num_deduced;
      ++result.num_one_to_one_deduced;
      graph.Add(pair.a, pair.b, Label::kNonMatching);
      continue;
    }
    outcome.label = oracle.GetLabel(pair.a, pair.b);
    outcome.source = LabelSource::kCrowdsourced;
    ++result.labeling.num_crowdsourced;
    result.labeling.crowdsourced_per_iteration.push_back(1);
    graph.Add(pair.a, pair.b, outcome.label);
    if (outcome.label == Label::kMatching) {
      if (matched[static_cast<size_t>(pair.a)] ||
          matched[static_cast<size_t>(pair.b)]) {
        ++result.num_exclusivity_violations;
      }
      matched[static_cast<size_t>(pair.a)] = true;
      matched[static_cast<size_t>(pair.b)] = true;
    }
  }
  return result;
}

// The legacy InstantDecisionEngine, driven synchronously FIFO (the
// publication order RunNonParallelAmt bills for).
ReferenceResult ReferenceInstantFifo(const CandidateSet& pairs,
                                     const std::vector<int32_t>& order,
                                     LabelOracle& oracle,
                                     ConflictPolicy policy) {
  std::vector<std::optional<Label>> labels(pairs.size());
  std::vector<bool> published(pairs.size(), false);
  int64_t num_crowdsourced = 0;
  const auto scan = [&]() {
    std::vector<int32_t> fresh = ParallelCrowdsourcedPairs(
        pairs, order, labels, &published, policy);
    for (int32_t pos : fresh) published[static_cast<size_t>(pos)] = true;
    return fresh;
  };
  std::deque<int32_t> pending;
  {
    const std::vector<int32_t> initial = scan();
    pending.insert(pending.end(), initial.begin(), initial.end());
  }
  while (!pending.empty()) {
    const int32_t pos = pending.front();
    pending.pop_front();
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    const Label label = oracle.GetLabel(pair.a, pair.b);
    labels[static_cast<size_t>(pos)] = label;
    ++num_crowdsourced;
    if (label != Label::kMatching) {
      const std::vector<int32_t> fresh = scan();
      pending.insert(pending.end(), fresh.begin(), fresh.end());
    }
  }
  ReferenceResult result;
  result.outcomes.resize(pairs.size());
  result.num_crowdsourced = num_crowdsourced;
  ClusterGraph graph(NumObjectsSpanned(pairs), policy);
  for (int32_t pos : order) {
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    auto& label = labels[static_cast<size_t>(pos)];
    auto& outcome = result.outcomes[static_cast<size_t>(pos)];
    if (label.has_value()) {
      outcome = {*label, LabelSource::kCrowdsourced};
      graph.Add(pair.a, pair.b, *label);
      continue;
    }
    const Deduction deduction = graph.Deduce(pair.a, pair.b);
    EXPECT_NE(deduction, Deduction::kUndeduced);
    label = DeductionToLabel(deduction);
    outcome = {*label, LabelSource::kDeduced};
    ++result.num_deduced;
  }
  result.num_conflicts = graph.num_conflicts();
  return result;
}

// --- The matrix -----------------------------------------------------------

struct OracleFactory {
  const GroundTruthOracle* truth;
  double error_rate;
  uint64_t seed;

  // Batch-safe fresh oracle per run: identical answer streams for the
  // session and the reference.
  std::unique_ptr<LabelOracle> Make() const {
    if (error_rate == 0.0) {
      return std::make_unique<GroundTruthOracle>(*truth);
    }
    return std::make_unique<HashNoisyOracle>(truth, error_rate, error_rate,
                                             seed);
  }
};

std::vector<std::vector<int32_t>> OrdersFor(const CandidateSet& pairs,
                                            const GroundTruthOracle& truth,
                                            uint64_t seed) {
  std::vector<std::vector<int32_t>> orders;
  orders.push_back(IdentityOrder(pairs.size()));
  for (OrderKind kind : {OrderKind::kOptimal, OrderKind::kExpected,
                         OrderKind::kRandom, OrderKind::kWorst}) {
    Rng rng(seed ^ 0xfeed);
    orders.push_back(MakeLabelingOrder(pairs, kind, &truth, &rng).value());
  }
  return orders;
}

class SessionEquivalence : public ::testing::Test {
 protected:
  // Figure 3 plus random instances of varied density and cluster shape.
  std::vector<RandomInstance> Instances() {
    std::vector<RandomInstance> instances;
    instances.push_back({Figure3Pairs(), {0, 0, 0, 1, 1, 2}});
    instances.push_back(MakeRandomInstance(101, 25, 5, 90));
    instances.push_back(MakeRandomInstance(102, 40, 12, 150));
    instances.push_back(MakeRandomInstance(103, 12, 2, 50));
    return instances;
  }
};

TEST_F(SessionEquivalence, SequentialScheduleMatchesReference) {
  for (const RandomInstance& instance : Instances()) {
    GroundTruthOracle truth(instance.entity_of);
    for (const auto& order : OrdersFor(instance.pairs, truth, 5)) {
      for (ConflictPolicy policy :
           {ConflictPolicy::kKeepFirst, ConflictPolicy::kTrustNew}) {
        for (double error_rate : {0.0, 0.25}) {
          const OracleFactory oracles{&truth, error_rate, 17};
          auto ref_oracle = oracles.Make();
          const ReferenceResult expected = ReferenceSequential(
              instance.pairs, order, *ref_oracle, policy);

          LabelingSessionOptions options;
          options.conflict_policy = policy;
          LabelingSession session(options);
          auto oracle = oracles.Make();
          const LabelingReport actual =
              session.Run(instance.pairs, order, *oracle).value();
          ASSERT_TRUE(Matches(actual, expected))
              << "policy=" << static_cast<int>(policy)
              << " error_rate=" << error_rate;
          EXPECT_EQ(oracle->num_queries(), ref_oracle->num_queries());
        }
      }
    }
  }
}

TEST_F(SessionEquivalence, RoundParallelScheduleMatchesReference) {
  for (const RandomInstance& instance : Instances()) {
    GroundTruthOracle truth(instance.entity_of);
    for (const auto& order : OrdersFor(instance.pairs, truth, 6)) {
      for (ConflictPolicy policy :
           {ConflictPolicy::kKeepFirst, ConflictPolicy::kTrustNew}) {
        for (double error_rate : {0.0, 0.25}) {
          const OracleFactory oracles{&truth, error_rate, 19};
          auto ref_oracle = oracles.Make();
          const ReferenceResult expected = ReferenceRoundParallel(
              instance.pairs, order, *ref_oracle, policy);
          for (int threads : {1, 2, 4, 8}) {
            LabelingSessionOptions options;
            options.schedule = SchedulePolicy::kRoundParallel;
            options.conflict_policy = policy;
            options.num_threads = threads;
            LabelingSession session(options);
            auto oracle = oracles.Make();
            const LabelingReport actual =
                session.Run(instance.pairs, order, *oracle).value();
            ASSERT_TRUE(Matches(actual, expected))
                << "threads=" << threads
                << " policy=" << static_cast<int>(policy)
                << " error_rate=" << error_rate;
          }
        }
      }
    }
  }
}

TEST_F(SessionEquivalence, BudgetStopMatchesReference) {
  for (const RandomInstance& instance : Instances()) {
    GroundTruthOracle truth(instance.entity_of);
    for (const auto& order : OrdersFor(instance.pairs, truth, 7)) {
      for (int64_t budget : {0, 1, 7, 40, 10000}) {
        const OracleFactory oracles{&truth, 0.0, 0};
        auto ref_oracle = oracles.Make();
        const ReferenceBudgetResult expected =
            ReferenceBudget(instance.pairs, order, budget, *ref_oracle);

        LabelingSessionOptions options;
        options.stop = StopPolicy::Budget(budget);
        LabelingSession session(options);
        auto oracle = oracles.Make();
        const LabelingReport actual =
            session.Run(instance.pairs, order, *oracle).value();
        ASSERT_EQ(actual.outcomes, expected.outcomes) << "budget=" << budget;
        EXPECT_EQ(actual.num_crowdsourced, expected.num_crowdsourced);
        EXPECT_EQ(actual.num_deduced, expected.num_deduced);
        EXPECT_EQ(actual.num_unlabeled, expected.num_unlabeled);
        EXPECT_EQ(oracle->num_queries(), ref_oracle->num_queries());
      }
    }
  }
}

TEST_F(SessionEquivalence, OneToOneChainMatchesReference) {
  for (const RandomInstance& instance : Instances()) {
    GroundTruthOracle truth(instance.entity_of);
    for (const auto& order : OrdersFor(instance.pairs, truth, 8)) {
      for (double error_rate : {0.0, 0.25}) {
        const OracleFactory oracles{&truth, error_rate, 23};
        auto ref_oracle = oracles.Make();
        const ReferenceOneToOneResult expected =
            ReferenceOneToOne(instance.pairs, order, *ref_oracle);

        LabelingSessionOptions options;
        options.one_to_one = true;
        LabelingSession session(options);
        auto oracle = oracles.Make();
        const LabelingReport actual =
            session.Run(instance.pairs, order, *oracle).value();
        ASSERT_TRUE(Matches(actual, expected.labeling));
        EXPECT_EQ(actual.num_one_to_one_deduced,
                  expected.num_one_to_one_deduced);
        EXPECT_EQ(actual.num_exclusivity_violations,
                  expected.num_exclusivity_violations);
      }
    }
  }
}

TEST_F(SessionEquivalence, InstantScheduleMatchesReference) {
  for (const RandomInstance& instance : Instances()) {
    GroundTruthOracle truth(instance.entity_of);
    for (const auto& order : OrdersFor(instance.pairs, truth, 9)) {
      for (ConflictPolicy policy :
           {ConflictPolicy::kKeepFirst, ConflictPolicy::kTrustNew}) {
        for (double error_rate : {0.0, 0.25}) {
          const OracleFactory oracles{&truth, error_rate, 29};
          auto ref_oracle = oracles.Make();
          const ReferenceResult expected = ReferenceInstantFifo(
              instance.pairs, order, *ref_oracle, policy);

          LabelingSessionOptions options;
          options.schedule = SchedulePolicy::kInstantDecision;
          options.conflict_policy = policy;
          LabelingSession session(options);
          auto oracle = oracles.Make();
          const LabelingReport actual =
              session.Run(instance.pairs, order, *oracle).value();
          ASSERT_TRUE(Matches(actual, expected))
              << "policy=" << static_cast<int>(policy)
              << " error_rate=" << error_rate;
          EXPECT_EQ(oracle->num_queries(), ref_oracle->num_queries());
        }
      }
    }
  }
}

}  // namespace
}  // namespace crowdjoin
