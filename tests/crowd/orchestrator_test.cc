#include "crowd/orchestrator.h"

#include <gtest/gtest.h>

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

TEST(Orchestrator, NonTransitiveLabelsEverythingCorrectly) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  const AmtRunStats stats =
      RunNonTransitiveAmt(pairs, SmallConfig(), truth).value();
  EXPECT_EQ(stats.num_hits, 2);  // 8 pairs / 4 per HIT
  EXPECT_EQ(stats.num_assignments, 6);
  EXPECT_EQ(stats.num_crowdsourced_pairs, 8);
  EXPECT_EQ(stats.num_deduced_pairs, 0);
  const QualityMetrics quality =
      ComputeQuality(pairs, stats.final_labels, truth);
  EXPECT_DOUBLE_EQ(quality.f_measure, 1.0);
}

TEST(Orchestrator, TransitiveCrowdsourcesFewerPairs) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  const AmtRunStats stats =
      RunTransitiveAmt(pairs, IdentityOrder(pairs.size()), SmallConfig(),
                       truth)
          .value();
  EXPECT_EQ(stats.num_crowdsourced_pairs, 6);
  EXPECT_EQ(stats.num_deduced_pairs, 2);
  const QualityMetrics quality =
      ComputeQuality(pairs, stats.final_labels, truth);
  EXPECT_DOUBLE_EQ(quality.f_measure, 1.0);
  // On this tiny input the iterative campaign can use *more* HITs than the
  // one-shot baseline despite crowdsourcing fewer pairs (partial-HIT
  // flushes; the paper's Product dataset shows the same effect), so only
  // the crowdsourced-pair saving is asserted here.
  EXPECT_LT(stats.num_crowdsourced_pairs,
            RunNonTransitiveAmt(pairs, SmallConfig(), truth)
                .value()
                .num_crowdsourced_pairs);
}

TEST(Orchestrator, ParallelRoundsMatchTheRoundBasedLabeler) {
  // The Parallel strategy publishes Algorithm 2's batches to the platform,
  // so on Figure 3 it must crowdsource the same 6 pairs in 2 rounds and
  // deduce the other 2 — and the majority votes keep the labels correct.
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  const AmtRunStats stats =
      RunParallelAmt(pairs, IdentityOrder(pairs.size()), SmallConfig(),
                     truth)
          .value();
  EXPECT_EQ(stats.num_crowdsourced_pairs, 6);
  EXPECT_EQ(stats.num_deduced_pairs, 2);
  EXPECT_GT(stats.num_hits, 0);
  const QualityMetrics quality =
      ComputeQuality(pairs, stats.final_labels, truth);
  EXPECT_DOUBLE_EQ(quality.f_measure, 1.0);
}

TEST(Orchestrator, ParallelIsFasterThanNonParallelWallClock) {
  const auto instance = MakeRandomInstance(24, 25, 5, 90);
  GroundTruthOracle truth(instance.entity_of);
  const auto order = IdentityOrder(instance.pairs.size());
  const CrowdConfig config = SmallConfig();
  const AmtRunStats parallel =
      RunParallelAmt(instance.pairs, order, config, truth).value();
  const AmtRunStats serial =
      RunNonParallelAmt(instance.pairs, order, config, truth).value();
  EXPECT_GT(serial.total_hours, parallel.total_hours);
  const QualityMetrics quality =
      ComputeQuality(instance.pairs, parallel.final_labels, truth);
  EXPECT_DOUBLE_EQ(quality.f_measure, 1.0);
}

TEST(Orchestrator, LocalParallelLabelingUsesConfigThreads) {
  // The latency-free campaign honors CrowdConfig::num_threads and, by the
  // labeler's contract, yields an identical result at every value — with
  // and without config-driven noise.
  const auto instance = MakeRandomInstance(25, 30, 6, 100);
  GroundTruthOracle truth(instance.entity_of);
  const auto order = IdentityOrder(instance.pairs.size());
  for (double error_rate : {0.0, 0.2}) {
    CrowdConfig config = SmallConfig();
    config.false_negative_rate = error_rate;
    config.false_positive_rate = error_rate;
    config.num_threads = 1;
    const LabelingReport baseline =
        RunLocalParallelLabeling(instance.pairs, order, config, truth)
            .value();
    for (int threads : {2, 8}) {
      config.num_threads = threads;
      const LabelingReport threaded =
          RunLocalParallelLabeling(instance.pairs, order, config, truth)
              .value();
      EXPECT_TRUE(threaded == baseline)
          << "error_rate=" << error_rate << " num_threads=" << threads;
    }
    if (error_rate == 0.0) {
      EXPECT_DOUBLE_EQ(
          ComputeQuality(instance.pairs, ExtractFinalLabels(baseline), truth)
              .f_measure,
          1.0);
    }
  }
}

TEST(Orchestrator, NonParallelSameHitsSlowerClock) {
  const auto instance = MakeRandomInstance(21, 25, 5, 90);
  GroundTruthOracle truth(instance.entity_of);
  const auto order = IdentityOrder(instance.pairs.size());
  const AmtRunStats parallel =
      RunTransitiveAmt(instance.pairs, order, SmallConfig(), truth).value();
  const AmtRunStats serial =
      RunNonParallelAmt(instance.pairs, order, SmallConfig(), truth).value();
  // Same pairs -> comparable HIT counts; serial publication must take
  // longer on the wall clock.
  EXPECT_NEAR(static_cast<double>(serial.num_hits),
              static_cast<double>(parallel.num_hits),
              0.15 * static_cast<double>(parallel.num_hits) + 2.0);
  EXPECT_GT(serial.total_hours, parallel.total_hours);
}

TEST(Orchestrator, NonParallelProducesCorrectLabels) {
  const auto instance = MakeRandomInstance(22, 20, 4, 70);
  GroundTruthOracle truth(instance.entity_of);
  const AmtRunStats stats =
      RunNonParallelAmt(instance.pairs,
                        IdentityOrder(instance.pairs.size()), SmallConfig(),
                        truth)
          .value();
  const QualityMetrics quality =
      ComputeQuality(instance.pairs, stats.final_labels, truth);
  EXPECT_DOUBLE_EQ(quality.f_measure, 1.0);
}

TEST(Orchestrator, NoisyWorkersDegradeTransitiveQuality) {
  const auto instance = MakeRandomInstance(23, 40, 6, 220);
  GroundTruthOracle truth(instance.entity_of);
  CrowdConfig noisy = SmallConfig();
  noisy.false_negative_rate = 0.35;
  noisy.false_positive_rate = 0.35;
  noisy.seed = 5;
  const AmtRunStats stats =
      RunTransitiveAmt(instance.pairs, IdentityOrder(instance.pairs.size()),
                       noisy, truth)
          .value();
  const QualityMetrics quality =
      ComputeQuality(instance.pairs, stats.final_labels, truth);
  EXPECT_LT(quality.f_measure, 1.0);
  EXPECT_GT(quality.f_measure, 0.0);
}

TEST(Orchestrator, EmptyCandidateSets) {
  GroundTruthOracle truth({});
  const AmtRunStats non_transitive =
      RunNonTransitiveAmt({}, SmallConfig(), truth).value();
  EXPECT_EQ(non_transitive.num_hits, 0);
  const AmtRunStats transitive =
      RunTransitiveAmt({}, {}, SmallConfig(), truth).value();
  EXPECT_EQ(transitive.num_hits, 0);
  EXPECT_EQ(transitive.num_crowdsourced_pairs, 0);
  const AmtRunStats parallel =
      RunParallelAmt({}, {}, SmallConfig(), truth).value();
  EXPECT_EQ(parallel.num_hits, 0);
  EXPECT_EQ(parallel.num_crowdsourced_pairs, 0);
}

}  // namespace
}  // namespace crowdjoin
