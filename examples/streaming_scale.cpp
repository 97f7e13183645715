// Streaming scale subsystem: a full campaign — streaming datagen at a
// scale factor, sharded parallel similarity join, transitive labeling —
// without ever materializing the dataset. This is the path that carries
// the library from paper scale (~1k records) to ~1M records; here it runs
// at 8x a down-scaled paper configuration so the smoke test stays quick.
//
//   $ ./streaming_scale                    # token-Jaccard machine step
//   $ ./streaming_scale --measure=edit     # q-gram + banded-DP edit join
//   $ ./streaming_scale --measure=cosine   # idf-weighted cosine join

#include <cstdio>
#include <cstring>

#include "crowd/orchestrator.h"
#include "datagen/streaming_generator.h"

using namespace crowdjoin;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  // The similarity measure is the campaign's only knob here: the whole
  // pipeline downstream of it (sharded join, streaming rounds, labeling)
  // is measure-generic.
  MeasureKind measure = MeasureKind::kJaccard;
  for (int i = 1; i < argc; ++i) {
    const char* prefix = "--measure=";
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) {
      const auto parsed =
          SimilarityMeasure::ParseKind(argv[i] + std::strlen(prefix));
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 1;
      }
      measure = parsed.value();
    }
  }
  // A 250-record paper-style block, streamed at 8x scale = 2000 records.
  PaperDatasetConfig dataset_config;
  dataset_config.clusters.total_records = 250;
  dataset_config.clusters.max_cluster_size = 40;
  dataset_config.seed = 7;
  StreamingPaperSource source(dataset_config, /*scale_factor=*/8);

  StreamingCampaignConfig campaign;
  // No record scorer: the machine step is a `StreamingCandidateFeed`. It
  // reads the stream 512 records at a time, keeps only each record's
  // measure document (what the verifier needs), and emits the join's
  // similarity scores under the chosen measure as likelihoods — the
  // memory-lean million-record setup.
  campaign.candidates.measure = measure;
  campaign.candidates.token_join_threshold = 0.4;
  campaign.candidates.min_likelihood = 0.4;
  campaign.sharding.num_shards = 16;  // 136 shard-vs-shard probe tasks
  campaign.sharding.num_threads = 4;  // join worker pool
  campaign.crowd.num_threads = 4;     // labeling worker pool
  // Round-by-round labeling: every 16 probe tasks' candidates become one
  // feed round and one labeling round, so the candidate set is never
  // materialized — later rounds deduce from earlier rounds' clusters for
  // free. (Without this, the campaign takes the feed's one round of all
  // 136 tasks as its candidate set.)
  campaign.label_tasks_per_round = 16;

  const StreamingCampaignStats stats =
      RunStreamingCampaign(source, /*scorer=*/nullptr, campaign).value();

  std::printf("measure: %s\n", SimilarityMeasure::Get(measure).name());
  std::printf("streamed %lld records (%lld candidate pairs, "
              "%lld labeling rounds, never materialized)\n",
              static_cast<long long>(stats.num_records),
              static_cast<long long>(stats.num_candidates),
              static_cast<long long>(stats.labeling.num_stream_rounds));
  std::printf("crowdsourced %lld pairs, deduced %lld for free\n",
              static_cast<long long>(stats.labeling.num_crowdsourced),
              static_cast<long long>(stats.labeling.num_deduced));

  // Round-by-round mode must not leave the candidate set behind.
  if (!stats.candidates.empty()) {
    std::fprintf(stderr, "candidate set was materialized unexpectedly\n");
    return 1;
  }
  // The whole point of transitivity: deductions are not a rounding error.
  if (stats.labeling.num_deduced <= 0) {
    std::fprintf(stderr, "expected transitive deductions at scale\n");
    return 1;
  }
  // Every pair got a label and the counters add up.
  if (stats.labeling.num_unlabeled != 0 ||
      stats.labeling.num_crowdsourced + stats.labeling.num_deduced !=
          stats.num_candidates) {
    std::fprintf(stderr, "labeling counters are inconsistent\n");
    return 1;
  }
  std::printf("round-by-round streaming campaign complete\n");
  return 0;
}
