// Integration tests: the full hybrid human-machine pipeline — dataset
// generation, machine candidate generation, sorting, transitive labeling,
// crowd simulation, and quality evaluation — wired together end to end on
// down-scaled datasets.

#include <gtest/gtest.h>

#include "core/labeling_order.h"
#include "core/labeling_session.h"
#include "crowd/orchestrator.h"
#include "datagen/paper_dataset.h"
#include "datagen/product_dataset.h"
#include "datagen/streaming_generator.h"
#include "eval/metrics.h"
#include "eval/workbench.h"
#include "simjoin/candidate_generator.h"

namespace crowdjoin {
namespace {

// A fresh round-parallel session fanning oracle calls over `num_threads`.
LabelingSession RoundParallelSession(int num_threads = 1) {
  LabelingSessionOptions options;
  options.schedule = SchedulePolicy::kRoundParallel;
  options.num_threads = num_threads;
  return LabelingSession(options);
}

CandidateSet SmallPaperCandidates(Dataset* dataset_out) {
  PaperDatasetConfig config;
  config.clusters.total_records = 150;
  config.clusters.max_cluster_size = 25;
  config.seed = 31;
  Dataset dataset = GeneratePaperDataset(config).value();
  RecordScorer scorer = MakePaperScorer();
  scorer.FitTfIdf(dataset.records);
  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.1;
  options.min_likelihood = 0.2;
  CandidateSet candidates =
      GenerateCandidates(dataset.records, nullptr, scorer, options).value();
  *dataset_out = std::move(dataset);
  return candidates;
}

TEST(EndToEnd, PaperPipelinePerfectOracleIsLossless) {
  Dataset dataset;
  const CandidateSet candidates = SmallPaperCandidates(&dataset);
  ASSERT_GT(candidates.size(), 100u);
  GroundTruthOracle truth = MakeGroundTruthOracle(dataset);

  const auto order =
      MakeLabelingOrder(candidates, OrderKind::kExpected, &truth, nullptr)
          .value();
  GroundTruthOracle oracle = truth;
  const LabelingReport report =
      RoundParallelSession().Run(candidates, order, oracle).value();

  // Transitivity must save work on a clustered dataset...
  EXPECT_LT(report.num_crowdsourced,
            static_cast<int64_t>(candidates.size()));
  EXPECT_GT(report.num_deduced, 0);
  // ...without losing any quality under correct answers.
  const QualityMetrics quality =
      ComputeQuality(candidates, ExtractFinalLabels(report), truth);
  EXPECT_DOUBLE_EQ(quality.f_measure, 1.0);
}

TEST(EndToEnd, PaperPipelineThreadedLabelingIsIdenticalAndLossless) {
  // The full machine -> order -> label pipeline with the labeling fanned
  // over a worker pool: byte-identical to the single-threaded run, and
  // still lossless under correct answers.
  Dataset dataset;
  const CandidateSet candidates = SmallPaperCandidates(&dataset);
  GroundTruthOracle truth = MakeGroundTruthOracle(dataset);
  const auto order =
      MakeLabelingOrder(candidates, OrderKind::kExpected, &truth, nullptr)
          .value();

  GroundTruthOracle oracle_single = truth;
  const LabelingReport single =
      RoundParallelSession(1).Run(candidates, order, oracle_single).value();
  for (int num_threads : {2, 4, 8}) {
    GroundTruthOracle oracle = truth;
    const LabelingReport threaded =
        RoundParallelSession(num_threads)
            .Run(candidates, order, oracle)
            .value();
    ASSERT_TRUE(threaded == single) << "num_threads=" << num_threads;
    EXPECT_EQ(oracle.num_queries(), single.num_crowdsourced);
  }

  EXPECT_DOUBLE_EQ(
      ComputeQuality(candidates, ExtractFinalLabels(single), truth).f_measure,
      1.0);
}

TEST(EndToEnd, RoundBasedParallelAmtCampaign) {
  // The round-based (Algorithm 2) publication strategy on the simulated
  // platform: correct final labels, real transitivity savings, and fewer
  // HITs than the publish-everything baseline.
  Dataset dataset;
  const CandidateSet candidates = SmallPaperCandidates(&dataset);
  GroundTruthOracle truth = MakeGroundTruthOracle(dataset);
  const auto order =
      MakeLabelingOrder(candidates, OrderKind::kExpected, &truth, nullptr)
          .value();
  CrowdConfig config;
  config.pairs_per_hit = 10;
  config.num_workers = 10;
  config.seed = 23;
  const AmtRunStats parallel =
      RunParallelAmt(candidates, order, config, truth).value();
  const AmtRunStats baseline =
      RunNonTransitiveAmt(candidates, config, truth).value();
  EXPECT_LT(parallel.num_hits, baseline.num_hits);
  EXPECT_GT(parallel.num_deduced_pairs, 0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(parallel.final_labels[i],
              truth.Truth(candidates[i].a, candidates[i].b));
  }
}

TEST(EndToEnd, ProductPipelineBipartite) {
  ProductDatasetConfig config;
  config.clusters.total_records = 300;
  config.seed = 32;
  Dataset dataset = GenerateProductDataset(config).value();
  RecordScorer scorer = MakeProductScorer();
  scorer.FitTfIdf(dataset.records);
  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.1;
  options.min_likelihood = 0.2;
  const CandidateSet candidates =
      GenerateCandidates(dataset.records, &dataset.side_of, scorer, options)
          .value();
  ASSERT_GT(candidates.size(), 20u);

  GroundTruthOracle truth = MakeGroundTruthOracle(dataset);
  const auto order =
      MakeLabelingOrder(candidates, OrderKind::kExpected, &truth, nullptr)
          .value();
  GroundTruthOracle oracle = truth;
  LabelingSession session;  // sequential schedule
  const LabelingReport report =
      session.Run(candidates, order, oracle).value();
  EXPECT_DOUBLE_EQ(
      ComputeQuality(candidates, ExtractFinalLabels(report), truth).f_measure,
      1.0);
}

TEST(EndToEnd, CandidateRecallCoversMostTruePairs) {
  // The machine step must not weed out many true matches (the premise of
  // the hybrid workflow).
  Dataset dataset;
  const CandidateSet candidates = SmallPaperCandidates(&dataset);
  GroundTruthOracle truth = MakeGroundTruthOracle(dataset);
  int64_t matching_candidates = 0;
  for (const auto& pair : candidates) {
    if (truth.Truth(pair.a, pair.b) == Label::kMatching) {
      ++matching_candidates;
    }
  }
  const int64_t true_pairs = NumTrueMatchingPairs(dataset);
  EXPECT_GT(static_cast<double>(matching_candidates),
            0.7 * static_cast<double>(true_pairs));
}

TEST(EndToEnd, CrowdCampaignWithErrorsStaysReasonable) {
  Dataset dataset;
  const CandidateSet candidates = SmallPaperCandidates(&dataset);
  GroundTruthOracle truth = MakeGroundTruthOracle(dataset);
  const auto order =
      MakeLabelingOrder(candidates, OrderKind::kExpected, &truth, nullptr)
          .value();
  CrowdConfig config;
  config.pairs_per_hit = 10;
  config.num_workers = 10;
  config.false_negative_rate = 0.15;
  config.false_positive_rate = 0.15;
  config.seed = 17;
  const AmtRunStats transitive =
      RunTransitiveAmt(candidates, order, config, truth).value();
  const AmtRunStats baseline =
      RunNonTransitiveAmt(candidates, config, truth).value();
  EXPECT_LT(transitive.num_hits, baseline.num_hits);
  const QualityMetrics q_transitive =
      ComputeQuality(candidates, transitive.final_labels, truth);
  const QualityMetrics q_baseline =
      ComputeQuality(candidates, baseline.final_labels, truth);
  // Error propagation through deduction costs some quality, but the result
  // must stay in a usable band (the paper saw ~5 points of F-measure).
  EXPECT_GT(q_transitive.f_measure, 0.5);
  EXPECT_GE(q_baseline.f_measure + 0.02, q_transitive.f_measure);
}

TEST(EndToEnd, StreamingCampaignAtScaleFactorTwoIsLossless) {
  // The streaming scale path: stream -> sharded join -> transitive
  // labeling, at 2x paper scale, without materializing a Dataset. With a
  // perfect oracle the final labels must agree with the streamed ground
  // truth everywhere.
  PaperDatasetConfig config;
  config.clusters.total_records = 150;
  config.clusters.max_cluster_size = 25;
  config.seed = 36;
  StreamingPaperSource source(config, /*scale_factor=*/2);

  StreamingCampaignConfig campaign;
  campaign.candidates.token_join_threshold = 0.4;
  campaign.candidates.min_likelihood = 0.4;
  campaign.sharding.num_threads = 2;
  campaign.crowd.num_threads = 2;
  const StreamingCampaignStats stats =
      RunStreamingCampaign(source, /*scorer=*/nullptr, campaign).value();
  EXPECT_EQ(stats.num_records, 300);
  ASSERT_GT(stats.num_candidates, 0);
  EXPECT_GT(stats.labeling.num_deduced, 0);
  EXPECT_LT(stats.labeling.num_crowdsourced, stats.num_candidates);

  const GroundTruthOracle truth(stats.entity_of);
  for (size_t i = 0; i < stats.candidates.size(); ++i) {
    ASSERT_TRUE(stats.labeling.outcomes[i].has_value());
    EXPECT_EQ(stats.labeling.outcomes[i]->label,
              truth.Truth(stats.candidates[i].a, stats.candidates[i].b));
  }
}

TEST(EndToEnd, StreamingCampaignIsThreadCountInvariant) {
  PaperDatasetConfig config;
  config.clusters.total_records = 120;
  config.clusters.max_cluster_size = 20;
  config.seed = 37;

  StreamingCampaignConfig campaign;
  campaign.candidates.token_join_threshold = 0.4;
  campaign.candidates.min_likelihood = 0.4;

  StreamingPaperSource baseline_source(config, /*scale_factor=*/2);
  campaign.sharding.num_threads = 0;
  campaign.sharding.num_shards = 1;
  campaign.crowd.num_threads = 0;
  const StreamingCampaignStats baseline =
      RunStreamingCampaign(baseline_source, nullptr, campaign).value();

  for (int threads : {2, 4}) {
    for (int shards : {3, 16}) {
      StreamingPaperSource source(config, /*scale_factor=*/2);
      campaign.sharding.num_threads = threads;
      campaign.sharding.num_shards = shards;
      campaign.crowd.num_threads = threads;
      const StreamingCampaignStats stats =
          RunStreamingCampaign(source, nullptr, campaign).value();
      ASSERT_TRUE(stats.candidates == baseline.candidates)
          << "threads=" << threads << " shards=" << shards;
      ASSERT_TRUE(stats.labeling == baseline.labeling)
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

TEST(EndToEnd, WorkbenchInputsAreWellFormed) {
  const ExperimentInput paper = MakePaperExperimentInput(77).value();
  EXPECT_EQ(paper.dataset.records.size(), 997u);
  EXPECT_FALSE(paper.candidates.empty());
  const ExperimentInput product = MakeProductExperimentInput(77).value();
  EXPECT_TRUE(product.dataset.bipartite);
  EXPECT_FALSE(product.candidates.empty());
  for (const auto& pair : product.candidates) {
    EXPECT_NE(product.dataset.side_of[static_cast<size_t>(pair.a)],
              product.dataset.side_of[static_cast<size_t>(pair.b)]);
  }
  // Thresholding is monotone.
  EXPECT_GE(FilterByThreshold(paper.candidates, 0.2).size(),
            FilterByThreshold(paper.candidates, 0.4).size());
}

}  // namespace
}  // namespace crowdjoin
