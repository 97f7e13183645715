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
#include "simjoin/token_dictionary.h"
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
/// Every record's fields are concatenated and turned into a measure
/// document (`options.measure`: word tokens for Jaccard/cosine, q-grams of
/// the normalized text for edit distance); a prefix-filter similarity join
/// prunes the cross product; survivors are scored by `scorer` over records
/// prepared once up front (call `scorer.FitTfIdf` first if it uses TF-IDF;
/// a malformed spec fails here, before the join).
///
/// `side_of` selects the join shape: nullptr runs a self-join over
/// `records`; otherwise `side_of[i]` in {0, 1} assigns each record to one
/// collection and only cross-side pairs are produced (the Product dataset's
/// 1081 x 1092 setting); any other side value is an InvalidArgument.
/// Candidate pairs reference `Record::id`.
///
/// Pool: the scorer's `Prepare`, the join (`ShardedSelfJoiner`, bipartite
/// with a second joiner) and one pass over its survivors run on the
/// process-wide `SharedPool()` (inline on a 1-core host); there is no
/// thread option. Per that pool's rule, do not call this from a task
/// running on the shared pool.
///
/// The pass: the joined pairs are cut into left-id ranges of about equal
/// pair counts (`internal::CutRunsByLeftId`), and each range, as one pool
/// task, reads its pairs in (left, right) order, scores them row by row
/// (`PreparedRecords::RowCursor`), draws their likelihood noise and counts
/// the pairs that pass the `min_likelihood` cut; then each range writes its
/// kept pairs at its offset in the result.
///
/// Determinism: the result is bit-identical to the sequential machine step
/// (`BruteForceMeasureSelfJoin` / `BruteForceMeasureBipartiteJoin`, then
/// each pair scored, noised and cut in join order) for every pool size: the
/// join's pairs and their (left, right) order do not depend on the pool,
/// each pair's score is a function of the pair alone, and each range's
/// noise stream starts where one stream walked in join order stands at the
/// range's first pair (`Rng::SkipNormals`), one `Normal()` per joined pair,
/// kept or not.
///
/// Errors: argument errors (`side_of`) come first, then the scorer's
/// `Prepare`, then the join's threshold check; a pair that fails to score
/// (e.g. a record missing a scored field) fails the call with the error of
/// the first failing pair in join order, whichever failure the pool meets
/// first: a range stops at its first failing pair, and the lowest failing
/// range's error is returned.
Result<CandidateSet> GenerateCandidates(
    const RecordSet& records, const std::vector<uint8_t>* side_of,
    const RecordScorer& scorer, const CandidateGeneratorOptions& options);

/// \brief Streaming machine step: candidate generation over a
/// `RecordSource`, with the cross-product pruned by the sharded parallel
/// join — the entry point for 100k-1M-record workloads.
///
/// Records are pulled from `source` one at a time (after a `Reset`),
/// tokenized, interned, and fed straight into a `ShardedSelfJoiner` (one
/// per side when `source.meta().bipartite`); the join then fans across
/// `sharding.num_threads` pool workers.
///
/// `scorer` may be null: likelihoods are then the join's similarity
/// scores (under `options.measure`) and **no record text is retained** —
/// memory stays at the measure docs plus the candidate set, which is what
/// makes million-record campaigns fit. With a scorer (fit it over the same
/// corpus first) the streamed records are prepared for scoring once
/// (`RecordScorer::Prepare`) and scored on the same workers as the join, in
/// the same pass as `GenerateCandidates`, and the result — candidates and
/// errors alike — is byte-identical to `GenerateCandidates` over the
/// materialized dataset. A bipartite stream
/// record whose side is not 0 or 1 is an InvalidArgument.
///
/// `entity_of_out`, when non-null, receives each streamed record's ground
/// truth entity (indexed by record position) for building oracles without
/// a second pass.
Result<CandidateSet> GenerateCandidatesStreaming(
    RecordSource& source, const RecordScorer* scorer,
    const CandidateGeneratorOptions& options,
    const ShardedJoinOptions& sharding,
    std::vector<int32_t>* entity_of_out = nullptr);

/// \brief `CandidateStream` over a `RecordSource`: the machine step's
/// sharded join drained probe-task batch by probe-task batch, so candidate
/// pairs flow into a `LabelingSession::RunStream` round by round and the
/// full candidate set is **never materialized** — peak candidate memory is
/// one round (the output of `tasks_per_round` probe tasks).
///
/// This is the scorer-free memory-lean path: likelihoods are the join's
/// similarity scores under `candidates.measure`, optionally noised in
/// emission order (which, unlike
/// the batch path's global order, depends on the round partition — only the
/// zero-noise configuration is partition-independent). No record text is
/// retained; ground truth is captured from the stream during `Open`.
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

  /// Ingests `source` (tokenize + shard, no record retention) and prepares
  /// the sharded join. The feed is ready to stream rounds afterwards.
  static Result<std::unique_ptr<StreamingCandidateFeed>> Open(
      RecordSource& source, const Options& options);

  ~StreamingCandidateFeed() override;

  /// The next non-empty round of candidates; empty when every probe task
  /// has been drained. Pair ids are `Record::id`s, as everywhere.
  Result<CandidateSet> NextRound() override;

  /// Ground-truth entity per streamed record position (for oracles).
  const std::vector<int32_t>& entity_of() const { return entity_of_; }
  int64_t num_records() const {
    return static_cast<int64_t>(entity_of_.size());
  }
  /// Candidates emitted so far.
  int64_t num_candidates() const { return num_candidates_; }
  /// Rounds emitted so far.
  int64_t num_rounds() const { return num_rounds_; }
  /// Largest round emitted so far — the peak candidate-buffer bound.
  int64_t max_round_size() const { return max_round_size_; }

 private:
  StreamingCandidateFeed(const Options& options, bool bipartite);

  Options options_;
  bool bipartite_;
  int64_t tasks_per_round_;
  TokenDictionary dictionary_;
  // The cursor points into the joiners; the feed is never moved (`Open`
  // returns it on the heap).
  ShardedSelfJoiner left_joiner_;   // the self-join's or left side's docs
  ShardedSelfJoiner right_joiner_;  // the right side's docs (bipartite)
  ThreadPool pool_;
  std::optional<ShardedJoinCursor> cursor_;
  std::vector<ObjectId> left_ids_;   // record id by left/self local position
  std::vector<ObjectId> right_ids_;  // record id by right local position
  std::vector<int32_t> entity_of_;
  Rng noise_rng_;
  int64_t num_candidates_ = 0;
  int64_t num_rounds_ = 0;
  int64_t max_round_size_ = 0;
};

}  // namespace crowdjoin

#endif  // CROWDJOIN_SIMJOIN_CANDIDATE_GENERATOR_H_
