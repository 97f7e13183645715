// Fault-injection tests: the FaultInjector's counter-based coins, the
// platform's behavior under each fault class (abandonment, stragglers,
// spammers, expiry, flaky publishes), the orchestrator's recovery
// accounting, and the no-faults byte-identity guarantee.

#include "crowd/faults.h"

#include <gtest/gtest.h>

#include "crowd/availability_sim.h"
#include "crowd/orchestrator.h"
#include "eval/metrics.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::Figure3Pairs;
using testing_fixtures::Figure3Truth;
using testing_fixtures::IdentityOrder;
using testing_fixtures::MakeRandomInstance;

CrowdConfig SmallConfig() {
  CrowdConfig config;
  config.pairs_per_hit = 4;
  config.assignments_per_hit = 3;
  config.num_workers = 6;
  return config;
}

bool SameStats(const AmtRunStats& x, const AmtRunStats& y) {
  return x.num_hits == y.num_hits && x.num_assignments == y.num_assignments &&
         x.total_hours == y.total_hours &&
         x.total_cost_cents == y.total_cost_cents &&
         x.num_crowdsourced_pairs == y.num_crowdsourced_pairs &&
         x.num_deduced_pairs == y.num_deduced_pairs &&
         x.final_labels == y.final_labels &&
         x.num_publish_retries == y.num_publish_retries &&
         x.num_hits_reposted == y.num_hits_reposted &&
         x.num_reask_hits == y.num_reask_hits &&
         x.num_assignments_abandoned == y.num_assignments_abandoned &&
         x.num_hits_expired == y.num_hits_expired;
}

// --- FaultInjector coins ---------------------------------------------------

TEST(FaultInjector, DisabledPlanInjectsNothing) {
  const FaultPlan plan;  // all defaults: off
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(plan.transient_only());
  const FaultInjector injector(plan);
  for (int w = 0; w < 50; ++w) {
    EXPECT_FALSE(injector.WorkerIsSpammer(w));
    EXPECT_DOUBLE_EQ(injector.WorkerServiceMultiplier(w), 1.0);
  }
  for (int attempt = 1; attempt <= 5; ++attempt) {
    EXPECT_FALSE(injector.AssignmentAbandoned(7, 3, attempt));
    EXPECT_FALSE(injector.PairAttemptFails(1, 2, attempt));
    EXPECT_FALSE(injector.PublishFails(9, attempt));
  }
  EXPECT_EQ(injector.AsAttemptFaultFn(), nullptr);
}

TEST(FaultInjector, DecisionsAreDeterministicAndPairSymmetric) {
  FaultPlan plan;
  plan.seed = 17;
  plan.abandonment_rate = 0.4;
  plan.straggler_rate = 0.3;
  plan.spammer_rate = 0.2;
  plan.publish_failure_rate = 0.3;
  EXPECT_FALSE(plan.transient_only());  // spam persists across retries
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  for (int w = 0; w < 40; ++w) {
    EXPECT_EQ(a.WorkerIsSpammer(w), b.WorkerIsSpammer(w));
    EXPECT_DOUBLE_EQ(a.WorkerServiceMultiplier(w),
                     b.WorkerServiceMultiplier(w));
  }
  for (ObjectId x = 0; x < 20; ++x) {
    for (int attempt = 1; attempt <= 4; ++attempt) {
      EXPECT_EQ(a.PairAttemptFails(x, x + 1, attempt),
                b.PairAttemptFails(x, x + 1, attempt));
      // (a, b) and (b, a) share fate: the coin is over the unordered pair.
      EXPECT_EQ(a.PairAttemptFails(x, x + 1, attempt),
                a.PairAttemptFails(x + 1, x, attempt));
    }
  }
}

TEST(FaultInjector, SeedSelectsDifferentWeather) {
  FaultPlan plan;
  plan.seed = 1;
  plan.abandonment_rate = 0.5;
  FaultPlan other = plan;
  other.seed = 2;
  const FaultInjector a(plan);
  const FaultInjector b(other);
  int differences = 0;
  for (ObjectId x = 0; x < 200; ++x) {
    if (a.PairAttemptFails(x, x + 1, 1) != b.PairAttemptFails(x, x + 1, 1)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 0);
}

TEST(FaultInjector, CoinsTrackTheirConfiguredRates) {
  FaultPlan plan;
  plan.seed = 23;
  plan.abandonment_rate = 0.25;
  plan.spammer_rate = 0.1;
  plan.straggler_rate = 0.3;
  plan.straggler_multiplier = 5.0;
  const FaultInjector injector(plan);
  int abandoned = 0;
  int spammers = 0;
  int stragglers = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (injector.AssignmentAbandoned(static_cast<uint64_t>(i), i % 7, 1)) {
      ++abandoned;
    }
    if (injector.WorkerIsSpammer(i)) ++spammers;
    if (injector.WorkerServiceMultiplier(i) > 1.0) ++stragglers;
  }
  EXPECT_NEAR(static_cast<double>(abandoned) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(spammers) / n, 0.10, 0.02);
  EXPECT_NEAR(static_cast<double>(stragglers) / n, 0.30, 0.02);
}

// --- No-faults byte-identity ----------------------------------------------

TEST(CrowdFaults, SeededButDisabledPlanIsByteIdentical) {
  // Setting only the fault seed must not perturb the simulation: fault
  // coins are pure hashes, not RNG-stream draws.
  const auto instance = MakeRandomInstance(51, 25, 5, 90);
  GroundTruthOracle truth(instance.entity_of);
  const auto order = IdentityOrder(instance.pairs.size());
  CrowdConfig config = SmallConfig();
  config.false_negative_rate = 0.2;
  config.false_positive_rate = 0.2;
  config.worker_rate_stddev = 0.05;
  const AmtRunStats baseline =
      RunTransitiveAmt(instance.pairs, order, config, truth).value();
  config.faults.seed = 0xDEADBEEF;  // everything else stays off
  const AmtRunStats seeded =
      RunTransitiveAmt(instance.pairs, order, config, truth).value();
  EXPECT_TRUE(SameStats(baseline, seeded));
}

// --- Platform fault behavior ----------------------------------------------

TEST(CrowdFaults, AbandonedAssignmentsAreRefilledAndUnbilled) {
  const auto instance = MakeRandomInstance(52, 25, 5, 90);
  GroundTruthOracle truth(instance.entity_of);
  const auto order = IdentityOrder(instance.pairs.size());
  CrowdConfig config = SmallConfig();
  const AmtRunStats baseline =
      RunTransitiveAmt(instance.pairs, order, config, truth).value();
  config.faults.seed = 3;
  config.faults.abandonment_rate = 0.3;
  const AmtRunStats faulted =
      RunTransitiveAmt(instance.pairs, order, config, truth).value();
  EXPECT_GT(faulted.num_assignments_abandoned, 0);
  // Abandoned pickups are not billed: every completed HIT still costs
  // exactly assignments_per_hit answers.
  EXPECT_EQ(faulted.num_assignments,
            faulted.num_hits * config.assignments_per_hit);
  // Perfect workers keep the labels perfect; abandonment only costs time.
  EXPECT_DOUBLE_EQ(
      ComputeQuality(instance.pairs, faulted.final_labels, truth).f_measure,
      1.0);
  EXPECT_GE(faulted.total_hours, baseline.total_hours);
}

TEST(CrowdFaults, ExpiredHitsAreRepostedUntilAnswered) {
  const auto instance = MakeRandomInstance(53, 25, 5, 90);
  GroundTruthOracle truth(instance.entity_of);
  const auto order = IdentityOrder(instance.pairs.size());
  CrowdConfig config = SmallConfig();
  config.faults.seed = 4;
  config.faults.straggler_rate = 0.5;
  config.faults.straggler_multiplier = 8.0;
  config.faults.hit_expiry_hours = 3.0;
  config.retry.max_attempts = 6;
  const AmtRunStats stats =
      RunTransitiveAmt(instance.pairs, order, config, truth).value();
  EXPECT_GT(stats.num_hits_expired, 0);
  EXPECT_GT(stats.num_hits_reposted, 0);
  EXPECT_DOUBLE_EQ(
      ComputeQuality(instance.pairs, stats.final_labels, truth).f_measure,
      1.0);
}

TEST(CrowdFaults, SpammersInvertEveryAnswer) {
  // With every worker spamming and no honest noise, every majority vote is
  // inverted — the non-transitive baseline gets every label wrong.
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  CrowdConfig config = SmallConfig();
  config.faults.seed = 5;
  config.faults.spammer_rate = 1.0;
  const AmtRunStats stats =
      RunNonTransitiveAmt(pairs, config, truth).value();
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Label real = truth.Truth(pairs[i].a, pairs[i].b);
    EXPECT_NE(stats.final_labels[i], real) << "pair " << i;
  }
}

TEST(CrowdFaults, TransientPublishFailuresAreRetriedToCompletion) {
  const auto instance = MakeRandomInstance(54, 25, 5, 90);
  GroundTruthOracle truth(instance.entity_of);
  const auto order = IdentityOrder(instance.pairs.size());
  CrowdConfig config = SmallConfig();
  config.faults.seed = 6;
  config.faults.publish_failure_rate = 0.5;
  config.retry.max_attempts = 8;
  const AmtRunStats stats =
      RunTransitiveAmt(instance.pairs, order, config, truth).value();
  EXPECT_GT(stats.num_publish_retries, 0);
  EXPECT_DOUBLE_EQ(
      ComputeQuality(instance.pairs, stats.final_labels, truth).f_measure,
      1.0);
}

TEST(CrowdFaults, QuorumReasksFireOnSplitVotes) {
  const auto instance = MakeRandomInstance(55, 30, 6, 120);
  GroundTruthOracle truth(instance.entity_of);
  CrowdConfig config = SmallConfig();
  config.false_negative_rate = 0.35;
  config.false_positive_rate = 0.35;
  config.worker_rate_stddev = 0.1;
  config.retry.reask_margin = 1;  // any non-unanimous 3-vote HIT re-asks
  const AmtRunStats stats =
      RunNonTransitiveAmt(instance.pairs, config, truth).value();
  EXPECT_GT(stats.num_reask_hits, 0);
  // Re-asked HITs are extra publications on top of the baseline count.
  const int64_t base_hits =
      (static_cast<int64_t>(instance.pairs.size()) + config.pairs_per_hit -
       1) /
      config.pairs_per_hit;
  EXPECT_EQ(stats.num_hits, base_hits + stats.num_reask_hits);
}

TEST(CrowdFaults, FaultedCampaignsAreSeedDeterministic) {
  const auto instance = MakeRandomInstance(56, 25, 5, 90);
  GroundTruthOracle truth(instance.entity_of);
  const auto order = IdentityOrder(instance.pairs.size());
  CrowdConfig config = SmallConfig();
  config.false_negative_rate = 0.2;
  config.false_positive_rate = 0.2;
  config.faults.seed = 7;
  config.faults.abandonment_rate = 0.2;
  config.faults.straggler_rate = 0.3;
  config.faults.hit_expiry_hours = 6.0;
  config.faults.publish_failure_rate = 0.2;
  config.retry.reask_margin = 1;
  const AmtRunStats first =
      RunTransitiveAmt(instance.pairs, order, config, truth).value();
  const AmtRunStats second =
      RunTransitiveAmt(instance.pairs, order, config, truth).value();
  EXPECT_TRUE(SameStats(first, second));
}

// --- Availability simulation under faults ----------------------------------

TEST(AvailabilityFaults, AbandonedPickupsReturnToThePool) {
  const auto instance = MakeRandomInstance(57, 30, 6, 140);
  GroundTruthOracle truth(instance.entity_of);
  FaultPlan plan;
  plan.seed = 8;
  plan.abandonment_rate = 0.3;
  const FaultInjector injector(plan);
  RetryPolicy retry;
  retry.max_attempts = 3;

  Rng fault_free_rng(11);
  const auto fault_free =
      SimulateAvailability(instance.pairs,
                           IdentityOrder(instance.pairs.size()), truth,
                           PublicationPolicy::kRoundParallel,
                           CompletionOrder::kRandom, fault_free_rng)
          .value();
  Rng faulted_rng(11);
  const auto faulted =
      SimulateAvailability(instance.pairs,
                           IdentityOrder(instance.pairs.size()), truth,
                           PublicationPolicy::kRoundParallel,
                           CompletionOrder::kRandom, faulted_rng, &injector,
                           &retry)
          .value();
  // Abandonments add visible events but never lose work: the faulted run
  // crowdsources the same total and drains to zero availability.
  EXPECT_GT(faulted.back().num_abandoned, 0);
  EXPECT_GT(faulted.size(), fault_free.size());
  EXPECT_EQ(faulted.back().num_crowdsourced,
            fault_free.back().num_crowdsourced);
  EXPECT_EQ(faulted.back().num_available, 0);

  // And the faulted series is itself seed-deterministic.
  Rng repeat_rng(11);
  const auto repeat =
      SimulateAvailability(instance.pairs,
                           IdentityOrder(instance.pairs.size()), truth,
                           PublicationPolicy::kRoundParallel,
                           CompletionOrder::kRandom, repeat_rng, &injector,
                           &retry)
          .value();
  ASSERT_EQ(repeat.size(), faulted.size());
  for (size_t i = 0; i < repeat.size(); ++i) {
    EXPECT_EQ(repeat[i].num_crowdsourced, faulted[i].num_crowdsourced);
    EXPECT_EQ(repeat[i].num_available, faulted[i].num_available);
    EXPECT_EQ(repeat[i].num_abandoned, faulted[i].num_abandoned);
  }
}

TEST(AvailabilityFaults, DisabledInjectorMatchesNullInjector) {
  const auto instance = MakeRandomInstance(58, 20, 4, 70);
  GroundTruthOracle truth(instance.entity_of);
  const FaultInjector disabled{FaultPlan{}};
  Rng null_rng(12);
  const auto without =
      SimulateAvailability(instance.pairs,
                           IdentityOrder(instance.pairs.size()), truth,
                           PublicationPolicy::kInstantDecision,
                           CompletionOrder::kRandom, null_rng)
          .value();
  Rng disabled_rng(12);
  const auto with =
      SimulateAvailability(instance.pairs,
                           IdentityOrder(instance.pairs.size()), truth,
                           PublicationPolicy::kInstantDecision,
                           CompletionOrder::kRandom, disabled_rng, &disabled)
          .value();
  ASSERT_EQ(with.size(), without.size());
  for (size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].num_crowdsourced, without[i].num_crowdsourced);
    EXPECT_EQ(with[i].num_available, without[i].num_available);
    EXPECT_EQ(with[i].num_abandoned, 0);
  }
}

}  // namespace
}  // namespace crowdjoin
