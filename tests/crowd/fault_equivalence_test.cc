// The headline fault-tolerance invariant: for any transient-only fault
// plan, a retried campaign's final report is identical to the fault-free
// run's — at every thread count, for every seed tried. Transient faults
// (abandonment, straggling past a deadline, flaky publishes) cost backoff
// and wall clock but never change a label, because faulted attempts never
// reach the oracle and the post-max-attempts ask escalates.

#include <gtest/gtest.h>

#include "crowd/orchestrator.h"
#include "eval/metrics.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::IdentityOrder;
using testing_fixtures::MakeRandomInstance;

FaultPlan AbandonmentPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.abandonment_rate = 0.3;
  return plan;
}

FaultPlan StragglerExpiryPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.straggler_rate = 0.4;
  plan.straggler_multiplier = 6.0;
  plan.hit_expiry_hours = 2.0;
  return plan;
}

FaultPlan KitchenSinkTransientPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.abandonment_rate = 0.2;
  plan.straggler_rate = 0.3;
  plan.hit_expiry_hours = 4.0;
  plan.publish_failure_rate = 0.2;
  return plan;
}

TEST(FaultEquivalence, TransientPlansAreMaskedAtEveryThreadCount) {
  for (const uint64_t seed : {uint64_t{101}, uint64_t{202}}) {
    const auto instance =
        MakeRandomInstance(seed, /*num_objects=*/40, /*num_entities=*/8,
                           /*num_pairs=*/170);
    GroundTruthOracle truth(instance.entity_of);
    const auto order = IdentityOrder(instance.pairs.size());

    for (const double error_rate : {0.0, 0.2}) {
      CrowdConfig config;
      config.seed = seed;
      config.false_negative_rate = error_rate;
      config.false_positive_rate = error_rate;
      config.num_threads = 1;
      const LabelingReport fault_free =
          RunLocalParallelLabeling(instance.pairs, order, config, truth)
              .value();

      for (const FaultPlan& plan :
           {AbandonmentPlan(seed), StragglerExpiryPlan(seed),
            KitchenSinkTransientPlan(seed)}) {
        ASSERT_TRUE(plan.transient_only());
        for (const int threads : {1, 2, 4, 8}) {
          CrowdConfig faulted = config;
          faulted.faults = plan;
          faulted.num_threads = threads;
          const LabelingReport report =
              RunLocalParallelLabeling(instance.pairs, order, faulted, truth)
                  .value();
          EXPECT_TRUE(report == fault_free)
              << "seed=" << seed << " error_rate=" << error_rate
              << " threads=" << threads
              << " plan{abandon=" << plan.abandonment_rate
              << " straggle=" << plan.straggler_rate
              << " expiry=" << plan.hit_expiry_hours
              << " publish=" << plan.publish_failure_rate << "}";
        }
      }
    }
  }
}

TEST(FaultEquivalence, DifferentFaultSeedsSameLabels) {
  // Changing only the fault weather must never change the outcome, only
  // the (accounted) recovery work.
  const auto instance = MakeRandomInstance(77, 30, 6, 120);
  GroundTruthOracle truth(instance.entity_of);
  const auto order = IdentityOrder(instance.pairs.size());
  CrowdConfig config;
  config.false_negative_rate = 0.15;
  config.false_positive_rate = 0.15;
  config.faults = AbandonmentPlan(1);
  const LabelingReport first =
      RunLocalParallelLabeling(instance.pairs, order, config, truth).value();
  config.faults.seed = 2;
  const LabelingReport second =
      RunLocalParallelLabeling(instance.pairs, order, config, truth).value();
  EXPECT_TRUE(first == second);
}

TEST(FaultEquivalence, StreamedCampaignMasksTransientFaultsToo) {
  // The same invariant through the streaming round-by-round drive (the
  // path tests/integration/campaign_pins_test.cc pins at SF 10).
  const auto instance = MakeRandomInstance(88, 30, 6, 120);
  GroundTruthOracle truth(instance.entity_of);

  const auto run = [&](const FaultPlan& plan, int threads) {
    LabelingSessionOptions options;
    options.schedule = SchedulePolicy::kRoundParallel;
    options.num_threads = threads;
    if (plan.enabled()) {
      const FaultInjector injector(plan);
      options.attempt_fault = injector.AsAttemptFaultFn();
      options.retry.seed = 99;
    }
    LabelingSession session(options);
    MaterializedCandidateStream stream(&instance.pairs, /*round_size=*/30);
    return session.RunStream(stream, OrderKind::kExpected, truth).value();
  };

  const LabelingReport fault_free = run(FaultPlan{}, 1);
  for (const int threads : {1, 4}) {
    const LabelingReport faulted = run(KitchenSinkTransientPlan(9), threads);
    EXPECT_TRUE(faulted == fault_free) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace crowdjoin
