// Property-style equivalence harness for the round-parallel schedule's
// threading contract: for ANY number of worker threads, LabelingSession::Run
// must produce a LabelingReport identical to the single-threaded run — same
// outcomes, same per-iteration batch sizes, same crowdsourced / deduced /
// conflict counts. Exercised over randomized candidate sets, labeling
// orders, oracle error rates, and both conflict policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/labeling_order.h"
#include "core/labeling_session.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::Figure3Pairs;
using testing_fixtures::Figure3Truth;
using testing_fixtures::IdentityOrder;
using testing_fixtures::MakeRandomInstance;
using testing_fixtures::MockOracle;
using testing_fixtures::RunSession;
using testing_fixtures::ThreadSafeCountingOracle;

constexpr int kThreadCounts[] = {2, 4, 8};

LabelingSessionOptions Rounds(
    int num_threads, ConflictPolicy policy = ConflictPolicy::kKeepFirst) {
  return testing_fixtures::ScheduleOptions(SchedulePolicy::kRoundParallel,
                                           num_threads, policy);
}

// Runs the round-parallel schedule at 1, 2, 4, and 8 threads, each time on
// a fresh copy of `oracle` (so call-counting state does not leak between
// runs), and checks every multi-threaded result against the
// single-threaded baseline.
template <typename Oracle>
void ExpectThreadCountInvariant(const CandidateSet& pairs,
                                const std::vector<int32_t>& order,
                                const Oracle& oracle, ConflictPolicy policy,
                                const char* context) {
  Oracle baseline_oracle = oracle;
  const LabelingReport baseline =
      RunSession(Rounds(1, policy), pairs, order, baseline_oracle).value();
  for (int threads : kThreadCounts) {
    Oracle run_oracle = oracle;
    const LabelingReport threaded =
        RunSession(Rounds(threads, policy), pairs, order, run_oracle).value();
    EXPECT_TRUE(threaded == baseline)
        << context << ": num_threads=" << threads
        << " diverged from the single-threaded result";
    EXPECT_EQ(run_oracle.num_queries(), baseline_oracle.num_queries())
        << context << ": num_threads=" << threads;
  }
}

class DeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismTest, GroundTruthAcrossOrdersAndPolicies) {
  const uint64_t seed = GetParam();
  const auto instance = MakeRandomInstance(seed, 30, 6, 110);
  GroundTruthOracle truth(instance.entity_of);
  Rng rng(seed ^ 0xabcd);
  for (OrderKind kind : {OrderKind::kExpected, OrderKind::kRandom,
                         OrderKind::kOptimal, OrderKind::kWorst}) {
    const std::vector<int32_t> order =
        MakeLabelingOrder(instance.pairs, kind, &truth, &rng).value();
    for (ConflictPolicy policy :
         {ConflictPolicy::kKeepFirst, ConflictPolicy::kTrustNew}) {
      ExpectThreadCountInvariant(instance.pairs, order, truth, policy,
                                 OrderKindToString(kind).data());
    }
  }
}

TEST_P(DeterminismTest, NoisyOracleAcrossErrorRatesAndPolicies) {
  const uint64_t seed = GetParam();
  const auto instance = MakeRandomInstance(seed, 40, 8, 150);
  GroundTruthOracle truth(instance.entity_of);
  const std::vector<int32_t> order = IdentityOrder(instance.pairs.size());
  // Error rates vary with the seed so the sweep covers clean, skewed, and
  // symmetric-noise regimes. HashNoisyOracle answers depend only on the
  // pair, so its noise is thread-count independent by construction.
  const double fn_rate = 0.05 * static_cast<double>(seed % 4);
  const double fp_rate = 0.05 * static_cast<double>((seed / 4) % 3);
  for (ConflictPolicy policy :
       {ConflictPolicy::kKeepFirst, ConflictPolicy::kTrustNew}) {
    const HashNoisyOracle noisy(&truth, fn_rate, fp_rate, seed * 31 + 7);
    ExpectThreadCountInvariant(instance.pairs, order, noisy, policy,
                               "hash-noisy");
  }
}

TEST_P(DeterminismTest, RandomizedOrdersWithNoise) {
  const uint64_t seed = GetParam();
  const auto instance = MakeRandomInstance(seed ^ 0x5a5a, 25, 5, 80);
  GroundTruthOracle truth(instance.entity_of);
  Rng rng(seed);
  std::vector<int32_t> order = IdentityOrder(instance.pairs.size());
  rng.Shuffle(order);
  const HashNoisyOracle noisy(&truth, 0.15, 0.10, seed);
  for (ConflictPolicy policy :
       {ConflictPolicy::kKeepFirst, ConflictPolicy::kTrustNew}) {
    ExpectThreadCountInvariant(instance.pairs, order, noisy, policy,
                               "shuffled-order");
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DeterminismTest,
                         ::testing::Range<uint64_t>(500, 512));

// Exact oracle accounting under concurrency: every thread count asks each
// crowdsourced pair exactly once and nothing else.
TEST(ParallelLabelerDeterminism, ExactOracleCallCountsAtEveryThreadCount) {
  const auto instance = MakeRandomInstance(91, 35, 7, 130);
  const std::vector<int32_t> order = IdentityOrder(instance.pairs.size());

  ThreadSafeCountingOracle baseline_oracle(instance.entity_of);
  const LabelingReport baseline =
      RunSession(Rounds(1), instance.pairs, order, baseline_oracle).value();
  ASSERT_EQ(baseline_oracle.total_calls(), baseline.num_crowdsourced);

  for (int threads : kThreadCounts) {
    ThreadSafeCountingOracle oracle(instance.entity_of);
    const LabelingReport result =
        RunSession(Rounds(threads), instance.pairs, order, oracle).value();
    EXPECT_TRUE(result == baseline) << "num_threads=" << threads;
    // Exact accounting, not just totals: no pair is ever asked twice, and
    // the asked pairs are exactly those with a crowdsourced outcome. The
    // random instance may contain duplicate (a, b) pairs — only one of the
    // duplicate positions is crowdsourced, the others are deduced — so the
    // expectation aggregates positions per unordered pair.
    EXPECT_EQ(oracle.total_calls(), baseline.num_crowdsourced);
    EXPECT_EQ(oracle.num_queries(), baseline.num_crowdsourced);
    EXPECT_EQ(oracle.max_calls_per_pair(), 1);
    std::map<std::pair<ObjectId, ObjectId>, int64_t> expected_calls;
    for (size_t i = 0; i < instance.pairs.size(); ++i) {
      const CandidatePair& pair = instance.pairs[i];
      expected_calls[{std::min(pair.a, pair.b), std::max(pair.a, pair.b)}] +=
          result.outcomes[i]->source == LabelSource::kCrowdsourced ? 1 : 0;
    }
    for (const auto& [key, count] : expected_calls) {
      ASSERT_EQ(oracle.calls(key.first, key.second), count)
          << "pair (" << key.first << ", " << key.second
          << ") at num_threads=" << threads;
    }
  }
}

// Scripted, transitivity-violating answers (the crowd contradicting
// itself) must also resolve identically at every thread count, under both
// conflict policies.
TEST(ParallelLabelerDeterminism, InconsistentScriptedAnswers) {
  const CandidateSet pairs = Figure3Pairs();
  const std::vector<int32_t> order = IdentityOrder(pairs.size());
  MockOracle scripted;
  scripted.SetAnswer(0, 1, Label::kMatching);      // p1
  scripted.SetAnswer(1, 2, Label::kNonMatching);   // p2: contradicts p1+p4
  scripted.SetAnswer(0, 5, Label::kMatching);      // p3
  scripted.SetAnswer(0, 2, Label::kMatching);      // p4
  scripted.SetAnswer(3, 4, Label::kNonMatching);   // p5
  scripted.SetAnswer(3, 5, Label::kMatching);      // p6
  scripted.SetAnswer(1, 3, Label::kMatching);      // p7
  scripted.SetAnswer(4, 5, Label::kNonMatching);   // p8
  for (ConflictPolicy policy :
       {ConflictPolicy::kKeepFirst, ConflictPolicy::kTrustNew}) {
    ExpectThreadCountInvariant(pairs, order, scripted, policy,
                               "inconsistent-script");
  }
}

// The Figure 3 walk-through still holds when the batch is fanned out.
TEST(ParallelLabelerDeterminism, Figure3AtEightThreads) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle oracle = Figure3Truth();
  const LabelingReport result =
      RunSession(Rounds(8), pairs, IdentityOrder(pairs.size()), oracle)
          .value();
  EXPECT_EQ(result.crowdsourced_per_iteration, (std::vector<int64_t>{5, 1}));
  EXPECT_EQ(result.num_crowdsourced, 6);
  EXPECT_EQ(result.num_deduced, 2);
  EXPECT_EQ(oracle.num_queries(), 6);
}

// Degenerate inputs: empty candidate set and single pair, all thread
// counts.
TEST(ParallelLabelerDeterminism, DegenerateInputs) {
  for (int threads : {1, 2, 4, 8}) {
    GroundTruthOracle empty_oracle({});
    const LabelingReport empty =
        RunSession(Rounds(threads), {}, {}, empty_oracle).value();
    EXPECT_TRUE(empty.outcomes.empty());
    EXPECT_EQ(empty.num_crowdsourced, 0);

    GroundTruthOracle one_oracle({0, 0});
    const LabelingReport one =
        RunSession(Rounds(threads), {{0, 1, 0.9}}, {0}, one_oracle).value();
    EXPECT_EQ(one.num_crowdsourced, 1);
    EXPECT_EQ(one.outcomes[0]->label, Label::kMatching);
  }
}

}  // namespace
}  // namespace crowdjoin
