#ifndef CROWDJOIN_CROWD_ORCHESTRATOR_H_
#define CROWDJOIN_CROWD_ORCHESTRATOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/candidate.h"
#include "core/labeling_order.h"
#include "core/labeling_result.h"
#include "core/labeling_session.h"
#include "core/oracle.h"
#include "crowd/config.h"
#include "datagen/record_source.h"
#include "graph/label.h"
#include "simjoin/candidate_generator.h"
#include "text/record_similarity.h"

namespace crowdjoin {

/// Outcome of one simulated AMT campaign (a row of Table 1 / Table 2).
struct AmtRunStats {
  int64_t num_hits = 0;
  int64_t num_assignments = 0;
  double total_hours = 0.0;
  double total_cost_cents = 0.0;
  int64_t num_crowdsourced_pairs = 0;
  int64_t num_deduced_pairs = 0;
  /// Final label per candidate position (crowd answers where crowdsourced,
  /// transitive deductions elsewhere).
  std::vector<Label> final_labels;

  // Fault-recovery accounting (all zero without a fault plan).
  int64_t num_publish_retries = 0;       ///< transient publish failures retried
  int64_t num_hits_reposted = 0;         ///< expired HITs republished
  int64_t num_reask_hits = 0;            ///< quorum re-ask HITs published
  int64_t num_assignments_abandoned = 0; ///< worker walk-aways (not billed)
  int64_t num_hits_expired = 0;          ///< HITs that blew the deadline
};

/// \brief "Non-Transitive" baseline: publishes *every* candidate pair to
/// the platform immediately (batched into HITs) and takes the majority
/// votes as the final labels. No deduction happens.
Result<AmtRunStats> RunNonTransitiveAmt(const CandidateSet& pairs,
                                        const CrowdConfig& config,
                                        const GroundTruthOracle& truth);

/// \brief "Transitive" campaign: the labeling session's instant-decision
/// schedule publishes only must-crowdsource pairs (in the given labeling
/// order), batched into HITs; every other pair's label is deduced
/// transitively. Majority-voted crowd answers feed the deduction, so worker
/// errors propagate — exactly the effect Table 2 quantifies.
Result<AmtRunStats> RunTransitiveAmt(const CandidateSet& pairs,
                                     const std::vector<int32_t>& order,
                                     const CrowdConfig& config,
                                     const GroundTruthOracle& truth);

/// \brief Table 1's "Non-Parallel" baseline: crowdsources exactly the same
/// HITs as the transitive (Parallel(ID)) campaign but publishes them one at
/// a time, waiting for each to complete before publishing the next.
/// Assumes correct answers (Table 1 isolates completion time).
Result<AmtRunStats> RunNonParallelAmt(const CandidateSet& pairs,
                                      const std::vector<int32_t>& order,
                                      const CrowdConfig& config,
                                      const GroundTruthOracle& truth);

/// \brief Table 1's "Parallel" strategy (Algorithm 2, without instant
/// decisions): each round publishes the whole must-crowdsource batch to the
/// platform at once (batched into HITs), waits for every HIT of the round,
/// feeds the majority votes into the deduction scan, and repeats.
///
/// Runs the labeling session's round-parallel schedule with the platform
/// as batch source. `config.num_threads` plays no role here: it
/// parallelizes oracle-driven labeling, whereas this campaign's labels
/// come from the platform, which already services a round's HITs
/// concurrently through the simulated worker pool.
Result<AmtRunStats> RunParallelAmt(const CandidateSet& pairs,
                                   const std::vector<int32_t>& order,
                                   const CrowdConfig& config,
                                   const GroundTruthOracle& truth);

/// \brief Latency-free labeling campaign driven by a CrowdConfig: the
/// quality counterpart of `RunParallelAmt` when the HIT latency model is
/// not needed (sweeps that only care about labels and counts).
///
/// Builds a batch-safe oracle from the config — exact ground truth when
/// both error rates are zero, otherwise a `HashNoisyOracle` seeded with
/// `config.seed` — and runs the session's round-parallel schedule with its
/// oracle calls fanned across `config.num_threads` pool workers. By the
/// session's contract the report is identical for every `num_threads`.
Result<LabelingReport> RunLocalParallelLabeling(
    const CandidateSet& pairs, const std::vector<int32_t>& order,
    const CrowdConfig& config, const GroundTruthOracle& truth);

/// Configuration of a streaming campaign (see `RunStreamingCampaign`).
struct StreamingCampaignConfig {
  /// Machine-step knobs (similarity measure, join threshold, likelihood
  /// cut, noise). The measure choice lives here — not in `CrowdConfig`,
  /// which holds crowd-platform knobs — and flows through the candidate
  /// generator into the sharded join unchanged.
  CandidateGeneratorOptions candidates;
  /// Shard count and worker threads for the sharded similarity join.
  ShardedJoinOptions sharding;
  /// Labeling campaign knobs: `num_threads` fans the oracle calls,
  /// error rates select the noisy oracle, `seed` drives both noise and
  /// the random order (when chosen).
  CrowdConfig crowd;
  /// Labeling order; the default is the paper's likelihood heuristic.
  /// (Streamed campaigns order each round; see `LabelingSession::RunStream`.)
  OrderKind order = OrderKind::kExpected;
  /// 0 materializes the candidate set before labeling (the legacy shape).
  /// > 0 feeds candidates into the labeling session round by round — each
  /// round is the output of that many sharded-join probe tasks — so the
  /// full candidate set is never materialized (peak candidate memory = one
  /// round). Requires the scorer-free path.
  int64_t label_tasks_per_round = 0;
  /// Durable-campaign knobs (round-by-round mode only). A non-empty
  /// `checkpoint.path` makes the campaign write its round frontier there
  /// and resume from it after a kill; see `SessionCheckpointOptions`.
  /// `crowd.faults` / `crowd.retry` plug the per-pair transient fault
  /// model and retry policy into the session (`crowd.retry.seed == 0`
  /// derives the jitter seed from `crowd.seed`).
  SessionCheckpointOptions checkpoint;
};

/// Outcome of a streaming campaign.
struct StreamingCampaignStats {
  int64_t num_records = 0;
  int64_t num_candidates = 0;
  /// The machine step's candidate pairs (ids reference stream positions).
  /// Left empty in round-by-round mode (`label_tasks_per_round > 0`) —
  /// not materializing this vector is that mode's whole point.
  CandidateSet candidates;
  /// Ground truth captured while streaming, indexed by record position.
  std::vector<int32_t> entity_of;
  /// Full labeling outcome (crowdsourced + deduced counts and labels).
  LabelingReport labeling;
};

/// \brief End-to-end campaign over a `RecordSource`: stream -> sharded
/// parallel similarity join -> transitive labeling — the scale path that
/// runs 100k-1M-record workloads without ever materializing a `Dataset`.
///
/// A null `scorer` is the memory-lean configuration of the largest scale
/// factors: the candidate set is the one round of every probe task of a
/// `StreamingCandidateFeed`, or with `config.label_tasks_per_round > 0` the
/// feed streams into the session round by round. A scorer materializes the
/// stream for `GenerateCandidates`. Ground truth is captured from the
/// stream, so the oracle (exact, or noisy per `config.crowd` error rates)
/// needs no materialized dataset.
Result<StreamingCampaignStats> RunStreamingCampaign(
    RecordSource& source, const RecordScorer* scorer,
    const StreamingCampaignConfig& config);

}  // namespace crowdjoin

#endif  // CROWDJOIN_CROWD_ORCHESTRATOR_H_
