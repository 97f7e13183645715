#ifndef CROWDJOIN_SIMJOIN_CANDIDATE_GENERATOR_H_
#define CROWDJOIN_SIMJOIN_CANDIDATE_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/candidate.h"
#include "core/labeling_session.h"
#include "datagen/record_source.h"
#include "simjoin/sharded_join.h"
#include "simjoin/similarity_measure.h"
#include "text/record.h"
#include "text/record_similarity.h"

namespace crowdjoin {

/// Options for machine-based candidate generation (Section 2.3).
struct CandidateGeneratorOptions {
  /// Similarity measure the pruning join runs under. Jaccard is the
  /// paper's default machine step; edit distance fits typo-heavy corpora
  /// where word tokens diverge, cosine down-weights boilerplate tokens.
  MeasureKind measure = MeasureKind::kJaccard;
  /// Coarse similarity prune applied by the join (under `measure`) before
  /// the full record scorer runs. Loose by design: the paper's machine
  /// step "weeds out pairs that look very dissimilar" [25].
  double token_join_threshold = 0.1;
  /// Pairs whose blended record similarity (the matching likelihood) falls
  /// below this are dropped from the candidate set.
  double min_likelihood = 0.1;
  /// Gaussian noise added to each likelihood (clamped to [0.01, 0.99])
  /// before the `min_likelihood` cut. Models the miscalibration of real
  /// machine-learned match scores [25]: with zero noise the likelihood
  /// ranking separates matching from non-matching pairs almost perfectly
  /// and the parallel labeler converges in one round, which real candidate
  /// sets (Figures 13-14: ~14 rounds) do not.
  double likelihood_noise_stddev = 0.0;
  /// Seed for the likelihood noise stream.
  uint64_t noise_seed = 1;
};

/// \brief The machine step of the hybrid workflow: generates the candidate
/// set of matching pairs with likelihoods.
///
/// The step has two entry points, this one (materialized, scored) and
/// `StreamingCandidateFeed` (streamed, scorer-free), on one ingest and one
/// emission pass. The ingest takes records in blocks (here the whole set is
/// one): it checks their sides, normalizes their text (all fields) on the
/// pool and interns their measure documents (`options.measure`) in record
/// order into a sharded prefix-filter join. The emission pass scores the
/// join's survivors with `scorer` over records prepared once (call
/// `scorer.FitTfIdf` first if it uses TF-IDF), noises them and cuts them at
/// `min_likelihood`.
///
/// `side_of` selects the join shape: nullptr runs a self-join over
/// `records`; otherwise `side_of[i]` in {0, 1} assigns each record to one
/// collection and only cross-side pairs are produced (the Product dataset's
/// 1081 x 1092 setting); any other side value is an InvalidArgument.
/// Candidate pairs reference `Record::id`.
///
/// Pool: every step runs on the process-wide `SharedPool()` (inline on a
/// 1-core host); there is no thread option. Per that pool's rule, do not
/// call this from a task running on the shared pool.
///
/// Determinism: the result is bit-identical to the sequential machine step
/// (`BruteForceMeasureSelfJoin` / `BruteForceMeasureBipartiteJoin`, then
/// each pair scored, noised and cut in join order) for every pool size,
/// with one `Normal()` drawn per joined pair, kept or not.
///
/// Errors: argument errors (`side_of`) come first, then the scorer's
/// `Prepare` (a malformed spec), then the join's threshold check; a pair
/// that fails to score (e.g. a record missing a scored field) fails the
/// call with the error of the first failing pair in join order, whichever
/// failure the pool meets first.
Result<CandidateSet> GenerateCandidates(
    const RecordSet& records, const std::vector<uint8_t>* side_of,
    const RecordScorer& scorer, const CandidateGeneratorOptions& options);

namespace internal {

/// Records the feed's ingest reads from its source per block.
inline constexpr size_t kIngestBlockRecords = 512;

/// The records in the sharded join, with ids and positions per side.
struct JoinIngest;

/// `GenerateCandidates` on `num_shards` shards (<= 0 picks the default)
/// and `pool` (nullptr runs inline); the result is the same for all.
Result<CandidateSet> GenerateCandidatesOn(
    const RecordSet& records, const std::vector<uint8_t>* side_of,
    const RecordScorer& scorer, const CandidateGeneratorOptions& options,
    int num_shards, ThreadPool* pool);

}  // namespace internal

/// \brief The streaming machine step, for 100k-1M-record workloads: a
/// `CandidateStream` over a `RecordSource` that drains the sharded join's
/// probe tasks `tasks_per_round` at a time into `LabelingSession::RunStream`,
/// so the candidate set is **never materialized** (peak candidate memory is
/// one round).
///
/// `Open` runs the ingest of `GenerateCandidates` on the source,
/// `internal::kIngestBlockRecords` records at a time; no record text
/// outlives its block. Each round runs the emission pass without a scorer:
/// likelihoods are the join's scores. Noise is drawn in join order within a
/// round, continuing across rounds; one round of all tasks is the
/// materialized set.
class StreamingCandidateFeed : public CandidateStream {
 public:
  struct Options {
    /// Join threshold, likelihood cut, and noise knobs. (`min_likelihood`
    /// and the noise stream apply per emitted round.)
    CandidateGeneratorOptions candidates;
    /// Shard count and worker threads (the feed owns the pool).
    ShardedJoinOptions sharding;
    /// Probe tasks drained per `NextRound`; <= 0 picks 8. Smaller rounds
    /// mean a tighter memory bound and more deduction carry-over between
    /// rounds; larger rounds mean fewer, bigger crowd batches.
    int64_t tasks_per_round = 0;
  };

  /// Ingests `source`, capturing its ground truth, and prepares the join. A
  /// bipartite stream record whose side is not 0 or 1 is an InvalidArgument.
  static Result<std::unique_ptr<StreamingCandidateFeed>> Open(
      RecordSource& source, const Options& options);

  ~StreamingCandidateFeed() override;

  /// The next non-empty round of candidates; empty when every probe task
  /// has been drained. Pair ids are `Record::id`s, as everywhere.
  Result<CandidateSet> NextRound() override;

  /// Ground-truth entity per streamed record position (for oracles).
  const std::vector<int32_t>& entity_of() const;
  /// Moves `entity_of()` out of the feed, leaving it empty.
  std::vector<int32_t> TakeEntityOf();
  /// Candidates emitted so far.
  int64_t num_candidates() const { return num_candidates_; }
  /// Rounds emitted so far.
  int64_t num_rounds() const { return num_rounds_; }
  /// Largest round emitted so far — the peak candidate-buffer bound.
  int64_t max_round_size() const { return max_round_size_; }

 private:
  StreamingCandidateFeed(const Options& options, const StreamMeta& meta);

  Options options_;
  // The cursor points into the ingest's joiners and dictionary, so it is
  // declared after (and destroyed before) them.
  std::unique_ptr<internal::JoinIngest> ingest_;
  ThreadPool pool_;  // inline (no workers) unless `sharding.num_threads` > 0
  std::optional<ShardedJoinCursor> cursor_;
  Rng noise_rng_;
  int64_t num_candidates_ = 0;
  int64_t num_rounds_ = 0;
  int64_t max_round_size_ = 0;
};

}  // namespace crowdjoin

#endif  // CROWDJOIN_SIMJOIN_CANDIDATE_GENERATOR_H_
