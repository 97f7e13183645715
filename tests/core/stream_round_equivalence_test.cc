// Differential suite for the streamed round-parallel schedule: a
// multi-round `RunStream` must reproduce, report field by report field, a
// frozen reference that runs every Algorithm-2 scan on a deep copy of the
// persistent cluster graph — the plainest statement of "each scan starts
// from everything earlier rounds established". The grid crosses random
// instances with both conflict policies, noisy error rates, round sizes
// and order kinds, and it must exercise kTrustNew's edge dropping: each
// policy needs runs that really hit conflicts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/labeling_order.h"
#include "core/labeling_session.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::MakeRandomInstance;
using testing_fixtures::RandomInstance;

// The reference: chunked rounds in candidate order, one order per round
// drawn from `order_rng`, and every scan on a copy of `persistent`, into
// which each round's crowd answers are folded afterwards.
// `edge_conflicts` receives the persistent graph's matching-label conflicts:
// under kTrustNew, each one dropped a non-matching edge.
LabelingReport ReferenceStream(const CandidateSet& pairs, size_t round_size,
                               OrderKind order_kind, Rng& order_rng,
                               LabelOracle& oracle, ConflictPolicy policy,
                               int64_t* edge_conflicts) {
  LabelingReport report;
  ClusterGraph persistent(0, policy);
  int32_t num_objects = 0;
  for (size_t begin = 0; begin < pairs.size(); begin += round_size) {
    const size_t end = std::min(pairs.size(), begin + round_size);
    const CandidateSet round(pairs.begin() + static_cast<std::ptrdiff_t>(begin),
                             pairs.begin() + static_cast<std::ptrdiff_t>(end));
    const size_t n = round.size();
    ++report.num_stream_rounds;
    num_objects = std::max(num_objects, NumObjectsSpanned(round));
    persistent.EnsureObjects(num_objects);
    const std::vector<int32_t> order =
        MakeLabelingOrder(round, order_kind, nullptr, &order_rng).value();
    const size_t offset = report.outcomes.size();
    report.outcomes.resize(offset + n);
    report.num_candidates += static_cast<int64_t>(n);

    std::vector<std::optional<Label>> labels(n);
    size_t num_labeled = 0;
    while (num_labeled < n) {
      std::vector<int32_t> batch;
      {
        ClusterGraph graph = persistent;
        for (int32_t pos : order) {
          const CandidatePair& pair = round[static_cast<size_t>(pos)];
          const auto& label = labels[static_cast<size_t>(pos)];
          if (label.has_value()) {
            graph.Add(pair.a, pair.b, *label);
          } else if (graph.Deduce(pair.a, pair.b) == Deduction::kUndeduced) {
            batch.push_back(pos);
            graph.Add(pair.a, pair.b, Label::kMatching);
          }
        }
      }
      for (int32_t pos : batch) {
        const CandidatePair& pair = round[static_cast<size_t>(pos)];
        const Label label = oracle.GetLabel(pair.a, pair.b);
        labels[static_cast<size_t>(pos)] = label;
        report.outcomes[offset + static_cast<size_t>(pos)] =
            PairOutcome{label, LabelSource::kCrowdsourced};
        ++report.num_crowdsourced;
        ++num_labeled;
      }
      if (!batch.empty()) {
        report.crowdsourced_per_iteration.push_back(
            static_cast<int64_t>(batch.size()));
      }
      ClusterGraph graph = persistent;
      for (int32_t pos : order) {
        const CandidatePair& pair = round[static_cast<size_t>(pos)];
        auto& label = labels[static_cast<size_t>(pos)];
        if (label.has_value()) {
          graph.Add(pair.a, pair.b, *label);
          continue;
        }
        const Deduction deduction = graph.Deduce(pair.a, pair.b);
        if (deduction != Deduction::kUndeduced) {
          label = DeductionToLabel(deduction);
          report.outcomes[offset + static_cast<size_t>(pos)] =
              PairOutcome{*label, LabelSource::kDeduced};
          ++report.num_deduced;
          ++num_labeled;
        }
      }
    }
    for (int32_t pos : order) {
      const auto& outcome = report.outcomes[offset + static_cast<size_t>(pos)];
      if (outcome->source == LabelSource::kCrowdsourced) {
        const CandidatePair& pair = round[static_cast<size_t>(pos)];
        persistent.Add(pair.a, pair.b, outcome->label);
      }
    }
  }
  report.num_conflicts = persistent.num_conflicts();
  *edge_conflicts = persistent.conflicts_matching();
  return report;
}

// Names the first report field that differs, for a readable failure.
::testing::AssertionResult SameReport(const LabelingReport& actual,
                                      const LabelingReport& expected) {
  if (actual.outcomes != expected.outcomes) {
    size_t i = 0;
    while (i < actual.outcomes.size() && i < expected.outcomes.size() &&
           actual.outcomes[i] == expected.outcomes[i]) {
      ++i;
    }
    return ::testing::AssertionFailure() << "outcome " << i << " differs";
  }
  if (actual.crowdsourced_per_iteration !=
      expected.crowdsourced_per_iteration) {
    return ::testing::AssertionFailure() << "per-iteration sizes differ";
  }
  const auto counters = [](const LabelingReport& r) {
    return std::make_tuple(r.num_candidates, r.num_crowdsourced, r.num_deduced,
                           r.num_unlabeled, r.num_conflicts,
                           r.num_stream_rounds, r.num_one_to_one_deduced,
                           r.num_exclusivity_violations);
  };
  if (counters(actual) != counters(expected)) {
    return ::testing::AssertionFailure()
           << "counters (candidates, crowdsourced, deduced, unlabeled, "
              "conflicts, rounds) = ("
           << actual.num_candidates << ", " << actual.num_crowdsourced << ", "
           << actual.num_deduced << ", " << actual.num_unlabeled << ", "
           << actual.num_conflicts << ", " << actual.num_stream_rounds
           << "), expected (" << expected.num_candidates << ", "
           << expected.num_crowdsourced << ", " << expected.num_deduced << ", "
           << expected.num_unlabeled << ", " << expected.num_conflicts << ", "
           << expected.num_stream_rounds << ")";
  }
  if (!(actual == expected)) {
    return ::testing::AssertionFailure() << "reports differ";
  }
  return ::testing::AssertionSuccess();
}

// Instance `i` of the grid: sizes and cluster shapes vary with the seed,
// from a few dense clusters to many sparse ones.
RandomInstance GridInstance(int i) {
  const auto seed = static_cast<uint64_t>(4000 + i);
  const int32_t num_objects = 10 + (i * 7) % 51;
  const int32_t num_entities = std::max(2, num_objects / (2 + i % 5));
  const int32_t num_pairs = 30 + (i * 13) % 171;
  return MakeRandomInstance(seed, num_objects, num_entities, num_pairs);
}

class StreamRoundEquivalence
    : public ::testing::TestWithParam<std::tuple<ConflictPolicy, OrderKind>> {
};

TEST_P(StreamRoundEquivalence, MatchesDeepCopyReference) {
  const auto [policy, order_kind] = GetParam();
  constexpr int kInstances = 150;
  int64_t runs_with_edge_conflicts = 0;
  for (int i = 0; i < kInstances; ++i) {
    const RandomInstance instance = GridInstance(i);
    const GroundTruthOracle truth(instance.entity_of);
    for (double error_rate : {0.0, 0.15, 0.35}) {
      for (size_t round_size : {size_t{7}, size_t{25}, size_t{90}}) {
        const auto seed = static_cast<uint64_t>(i);
        Rng reference_rng(seed);
        HashNoisyOracle reference_oracle(&truth, error_rate, error_rate, seed);
        int64_t edge_conflicts = 0;
        const LabelingReport expected = ReferenceStream(
            instance.pairs, round_size, order_kind, reference_rng,
            reference_oracle, policy, &edge_conflicts);

        LabelingSessionOptions options;
        options.schedule = SchedulePolicy::kRoundParallel;
        options.conflict_policy = policy;
        // Every third instance fans its batches over a pool.
        options.num_threads = i % 3 == 0 ? 3 : 1;
        LabelingSession session(options);
        Rng order_rng(seed);
        HashNoisyOracle oracle(&truth, error_rate, error_rate, seed);
        MaterializedCandidateStream stream(&instance.pairs, round_size);
        const LabelingReport actual =
            session
                .RunStream(stream, order_kind, oracle, /*truth=*/nullptr,
                           &order_rng)
                .value();
        ASSERT_TRUE(SameReport(actual, expected))
            << "instance=" << i << " error_rate=" << error_rate
            << " round_size=" << round_size;
        ASSERT_EQ(oracle.num_queries(), reference_oracle.num_queries());
        if (edge_conflicts > 0) ++runs_with_edge_conflicts;
      }
    }
  }
  // Without matching labels that hit non-matching edges, the grid would
  // not reach kTrustNew's edge dropping.
  EXPECT_GT(runs_with_edge_conflicts, 0);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndOrders, StreamRoundEquivalence,
    ::testing::Combine(::testing::Values(ConflictPolicy::kKeepFirst,
                                         ConflictPolicy::kTrustNew),
                       ::testing::Values(OrderKind::kExpected,
                                         OrderKind::kRandom)));

}  // namespace
}  // namespace crowdjoin
