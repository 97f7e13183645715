#include "simjoin/candidate_generator.h"

#include <algorithm>
#include <optional>
#include <string>

#include "common/macros.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "simjoin/similarity_measure.h"
#include "simjoin/token_dictionary.h"

namespace crowdjoin {

namespace {

double NoisyLikelihood(double similarity, double stddev, Rng& rng) {
  if (stddev <= 0.0) return similarity;
  return std::clamp(similarity + rng.Normal(0.0, stddev), 0.01, 0.99);
}

// The text a record joins under: all fields concatenated. The measure
// turns it into signature tokens (word tokens or q-grams) via `MakeDoc`.
std::string RecordText(const Record& record) {
  std::string all;
  for (const auto& field : record.fields) {
    all += field;
    all += ' ';
  }
  return all;
}

// Records routed into a sharded joiner, self or bipartite (only the joiner
// of the input's shape is touched; the other pointer may be null), with
// each side-local join index mapped back to its record — the ingest half
// shared by the materializing machine step, its streaming form and the
// round-by-round feed, so side routing and id/entity bookkeeping exist
// exactly once.
struct JoinIngest {
  ShardedSelfJoiner* self_joiner = nullptr;
  ShardedBipartiteJoiner* bipartite_joiner = nullptr;
  bool bipartite = false;
  bool keep_positions = false;      // fill left_pos/right_pos (scorer path)
  std::vector<ObjectId> left_ids;   // record id by left/self local position
  std::vector<ObjectId> right_ids;  // record id by right local position
  std::vector<size_t> left_pos;     // record position per side-local index,
  std::vector<size_t> right_pos;    // for scoring prepared records
  std::vector<int32_t> entity_of;   // ground truth per stream position

  // Adds the document of the record at position `pos` to its side.
  void Add(const MeasureDoc& doc, uint8_t side, ObjectId id, size_t pos) {
    if (!bipartite || side == 0) {
      if (bipartite) {
        bipartite_joiner->AddLeft(doc);
      } else {
        self_joiner->Add(doc);
      }
      left_ids.push_back(id);
      if (keep_positions) left_pos.push_back(pos);
    } else {
      bipartite_joiner->AddRight(doc);
      right_ids.push_back(id);
      if (keep_positions) right_pos.push_back(pos);
    }
  }
};

// A catalog side is 0 (left) or 1 (right); anything else is a caller error,
// never silently the right side.
Status ValidateSide(size_t pos, uint8_t side) {
  if (side <= 1) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "record %zu has side %d; a side is 0 or 1", pos, static_cast<int>(side)));
}

// Tokenizes `source` into `out`. `retained`, when non-null, receives the
// records in stream order (the scorer path); `collect_entities` gates the
// ground-truth vector (skipped when the caller has no use for it — the
// memory-lean path).
Status IngestStreamIntoJoiner(RecordSource& source,
                              const SimilarityMeasure& measure,
                              bool collect_entities,
                              TokenDictionary& dictionary, RecordSet* retained,
                              JoinIngest& out) {
  source.Reset();
  dictionary.Reserve(static_cast<size_t>(source.meta().total_records));
  if (collect_entities) {
    out.entity_of.reserve(static_cast<size_t>(source.meta().total_records));
  }
  StreamedRecord streamed;
  size_t stream_pos = 0;
  while (source.Next(&streamed)) {
    if (out.bipartite) {
      CJ_RETURN_IF_ERROR(ValidateSide(stream_pos, streamed.side));
    }
    out.Add(measure.MakeDoc(RecordText(streamed.record), dictionary),
            streamed.side, streamed.record.id, stream_pos);
    if (collect_entities) out.entity_of.push_back(streamed.entity);
    if (retained != nullptr) retained->push_back(std::move(streamed.record));
    ++stream_pos;
  }
  return source.status();
}

// The emission half shared by every path: maps one verified join pair
// back to record ids, blends the (possibly re-scored) similarity into a
// likelihood, applies the cut.
void EmitCandidate(const ScoredPair& pair, bool bipartite,
                   const std::vector<ObjectId>& left_ids,
                   const std::vector<ObjectId>& right_ids, double similarity,
                   const CandidateGeneratorOptions& options, Rng& noise_rng,
                   CandidateSet& out) {
  const auto left = static_cast<size_t>(pair.left);
  const auto right = static_cast<size_t>(pair.right);
  const ObjectId id_a = left_ids[left];
  const ObjectId id_b = bipartite ? right_ids[right] : left_ids[right];
  const double likelihood = NoisyLikelihood(
      similarity, options.likelihood_noise_stddev, noise_rng);
  if (likelihood >= options.min_likelihood) {
    out.push_back({id_a, id_b, likelihood});
  }
}

// Joins everything ingested on `pool` into sorted runs; the join
// cursor (and its prefix indexes) is gone when this returns.
Result<internal::SortedRuns> JoinIngested(const JoinIngest& ingest,
                                          const TokenDictionary& dictionary,
                                          const SimilarityMeasure& measure,
                                          double threshold, ThreadPool* pool) {
  Result<ShardedJoinCursor> cursor =
      ingest.bipartite ? ingest.bipartite_joiner->MakeCursor(
                             dictionary, measure, threshold, pool)
                       : ingest.self_joiner->MakeCursor(dictionary, measure,
                                                        threshold, pool);
  CJ_RETURN_IF_ERROR(cursor.status());
  return cursor.value().NextBatchRuns(
      std::max<int64_t>(cursor.value().num_tasks(), 1), pool);
}

// Replaces every joined pair's join score by its record similarity, run by
// run across `pool`. A run stops at its first failing pair, and of those
// the one first in join order is returned: the error a sequential pass in
// join order stops at, whichever run fails first in time.
Status ScoreRuns(const PreparedRecords& prepared, const JoinIngest& ingest,
                 internal::SortedRuns& runs, ThreadPool* pool) {
  struct RunError {
    Status status;
    size_t at = 0;  // the failing pair's index in its run
  };
  const std::vector<RunError> errors = ParallelMap(
      pool, static_cast<int64_t>(runs.size()), [&](int64_t k) -> RunError {
        std::vector<ScoredPair>& run = runs[static_cast<size_t>(k)];
        for (size_t i = 0; i < run.size(); ++i) {
          const auto left = static_cast<size_t>(run[i].left);
          const auto right = static_cast<size_t>(run[i].right);
          const Result<double> similarity = prepared.Score(
              ingest.left_pos[left], ingest.bipartite ? ingest.right_pos[right]
                                                      : ingest.left_pos[right]);
          if (!similarity.ok()) return {similarity.status(), i};
          run[i].score = similarity.value();
        }
        return {};
      });
  const ScoredPair* first_failing = nullptr;
  Status status;
  for (size_t k = 0; k < runs.size(); ++k) {
    if (errors[k].status.ok()) continue;
    const ScoredPair& failing = runs[k][errors[k].at];
    if (first_failing == nullptr || PairOrderLess(failing, *first_failing)) {
      first_failing = &failing;
      status = errors[k].status;
    }
  }
  return status;
}

// Join -> score -> emit, shared by both materializing paths: joins what was
// ingested on `pool`, scores the survivors on the same pool when `prepared`
// is set (the join scores stand otherwise), then draws the noise and cuts
// sequentially in join order, so every likelihood is independent of the
// pool. The sorted runs are read in join order by a k-way merge instead
// of being merged into a copy: a merged copy beside the runs, whose memory
// the pool's threads then keep, raised peak RSS by about 15%.
Result<CandidateSet> JoinScoreEmit(const JoinIngest& ingest,
                                   const TokenDictionary& dictionary,
                                   const SimilarityMeasure& measure,
                                   const PreparedRecords* prepared,
                                   const CandidateGeneratorOptions& options,
                                   ThreadPool* pool) {
  CJ_ASSIGN_OR_RETURN(internal::SortedRuns runs,
                      JoinIngested(ingest, dictionary, measure,
                                   options.token_join_threshold, pool));
  if (prepared != nullptr) {
    CJ_RETURN_IF_ERROR(ScoreRuns(*prepared, ingest, runs, pool));
  }
  size_t num_joined = 0;
  for (const std::vector<ScoredPair>& run : runs) num_joined += run.size();
  CandidateSet candidates;
  candidates.reserve(num_joined);
  Rng noise_rng(options.noise_seed);
  internal::ForEachInPairOrder(runs, [&](const ScoredPair& pair) {
    EmitCandidate(pair, ingest.bipartite, ingest.left_ids, ingest.right_ids,
                  pair.score, options, noise_rng, candidates);
  });
  return candidates;
}

}  // namespace

Result<CandidateSet> GenerateCandidates(
    const RecordSet& records, const std::vector<uint8_t>* side_of,
    const RecordScorer& scorer, const CandidateGeneratorOptions& options) {
  if (side_of != nullptr) {
    if (side_of->size() != records.size()) {
      return Status::InvalidArgument("side_of size does not match records");
    }
    for (size_t i = 0; i < side_of->size(); ++i) {
      CJ_RETURN_IF_ERROR(ValidateSide(i, (*side_of)[i]));
    }
  }
  CJ_ASSIGN_OR_RETURN(const PreparedRecords prepared,
                      scorer.Prepare(records));

  const SimilarityMeasure& measure = SimilarityMeasure::Get(options.measure);
  TokenDictionary dictionary;
  dictionary.Reserve(records.size());
  // The default shard count: 8, 16 and 32 shards timed alike here.
  ShardedSelfJoiner self_joiner;
  ShardedBipartiteJoiner bipartite_joiner;
  JoinIngest ingest;
  ingest.self_joiner = &self_joiner;
  ingest.bipartite_joiner = &bipartite_joiner;
  ingest.bipartite = side_of != nullptr;
  ingest.keep_positions = true;
  for (size_t i = 0; i < records.size(); ++i) {
    ingest.Add(measure.MakeDoc(RecordText(records[i]), dictionary),
               side_of == nullptr ? 0 : (*side_of)[i], records[i].id, i);
  }
  ThreadPool* pool =
      ThreadPool::HardwareThreads() > 1 ? &SharedPool() : nullptr;
  return JoinScoreEmit(ingest, dictionary, measure, &prepared, options, pool);
}

Result<CandidateSet> GenerateCandidatesStreaming(
    RecordSource& source, const RecordScorer* scorer,
    const CandidateGeneratorOptions& options,
    const ShardedJoinOptions& sharding,
    std::vector<int32_t>* entity_of_out) {
  TokenDictionary dictionary;
  ShardedSelfJoiner self_joiner(sharding.num_shards);
  ShardedBipartiteJoiner bipartite_joiner(sharding.num_shards);
  const SimilarityMeasure& measure = SimilarityMeasure::Get(options.measure);

  // Records are retained only when a scorer needs the text back for the
  // likelihood blend.
  JoinIngest ingest;
  ingest.self_joiner = &self_joiner;
  ingest.bipartite_joiner = &bipartite_joiner;
  ingest.bipartite = source.meta().bipartite;
  ingest.keep_positions = scorer != nullptr;
  RecordSet retained;
  CJ_RETURN_IF_ERROR(IngestStreamIntoJoiner(
      source, measure, /*collect_entities=*/entity_of_out != nullptr,
      dictionary, scorer != nullptr ? &retained : nullptr, ingest));
  if (entity_of_out != nullptr) *entity_of_out = std::move(ingest.entity_of);

  // Score features are computed once per retained record; the record text
  // itself is not needed past this point.
  std::optional<PreparedRecords> prepared;
  if (scorer != nullptr) {
    CJ_ASSIGN_OR_RETURN(prepared, scorer->Prepare(retained));
    retained = RecordSet();
  }

  ThreadPool pool(sharding.num_threads);
  return JoinScoreEmit(ingest, dictionary, measure,
                       prepared.has_value() ? &*prepared : nullptr, options,
                       pool.num_threads() > 0 ? &pool : nullptr);
}

// ---------------------------------------------------------------------------
// StreamingCandidateFeed
// ---------------------------------------------------------------------------

namespace {
constexpr int64_t kDefaultTasksPerRound = 8;
}  // namespace

StreamingCandidateFeed::StreamingCandidateFeed(const Options& options,
                                               bool bipartite)
    : options_(options),
      bipartite_(bipartite),
      tasks_per_round_(options.tasks_per_round > 0 ? options.tasks_per_round
                                                   : kDefaultTasksPerRound),
      pool_(options.sharding.num_threads > 0 ? options.sharding.num_threads
                                             : 0),
      noise_rng_(options.candidates.noise_seed) {
  if (bipartite) {
    bipartite_joiner_ =
        std::make_unique<ShardedBipartiteJoiner>(options.sharding.num_shards);
  } else {
    self_joiner_ =
        std::make_unique<ShardedSelfJoiner>(options.sharding.num_shards);
  }
}

StreamingCandidateFeed::~StreamingCandidateFeed() = default;

Result<std::unique_ptr<StreamingCandidateFeed>> StreamingCandidateFeed::Open(
    RecordSource& source, const Options& options) {
  const bool bipartite = source.meta().bipartite;
  // make_unique cannot reach the private constructor.
  std::unique_ptr<StreamingCandidateFeed> feed(
      new StreamingCandidateFeed(options, bipartite));

  // Shared ingest, scorer-free: nothing but token docs and ids is
  // retained. (Only the joiner matching the source's shape exists here;
  // the helper never touches the other side.)
  const SimilarityMeasure& measure =
      SimilarityMeasure::Get(options.candidates.measure);
  JoinIngest ingest;
  ingest.self_joiner = feed->self_joiner_.get();
  ingest.bipartite_joiner = feed->bipartite_joiner_.get();
  ingest.bipartite = bipartite;
  CJ_RETURN_IF_ERROR(IngestStreamIntoJoiner(
      source, measure, /*collect_entities=*/true, feed->dictionary_,
      /*retained=*/nullptr, ingest));
  feed->left_ids_ = std::move(ingest.left_ids);
  feed->right_ids_ = std::move(ingest.right_ids);
  feed->entity_of_ = std::move(ingest.entity_of);

  // Prepare the join (phase 1) and park the task cursor. The measure
  // singleton outlives the cursor by construction.
  ThreadPool* pool = feed->pool_.num_threads() > 0 ? &feed->pool_ : nullptr;
  const double threshold = options.candidates.token_join_threshold;
  if (bipartite) {
    CJ_ASSIGN_OR_RETURN(
        ShardedJoinCursor cursor,
        feed->bipartite_joiner_->MakeCursor(feed->dictionary_, measure,
                                            threshold, pool));
    feed->cursor_.emplace(std::move(cursor));
  } else {
    CJ_ASSIGN_OR_RETURN(
        ShardedJoinCursor cursor,
        feed->self_joiner_->MakeCursor(feed->dictionary_, measure, threshold,
                                       pool));
    feed->cursor_.emplace(std::move(cursor));
  }
  return feed;
}

Result<CandidateSet> StreamingCandidateFeed::NextRound() {
  ThreadPool* pool = pool_.num_threads() > 0 ? &pool_ : nullptr;
  CandidateSet round;
  // A task batch can come back empty (or die entirely at the likelihood
  // cut); keep draining so an empty return always means end-of-stream.
  while (round.empty() && !cursor_->done()) {
    CJ_ASSIGN_OR_RETURN(const std::vector<ScoredPair> joined,
                        cursor_->NextBatch(tasks_per_round_, pool));
    round.reserve(joined.size());
    for (const ScoredPair& pair : joined) {
      EmitCandidate(pair, bipartite_, left_ids_, right_ids_, pair.score,
                    options_.candidates, noise_rng_, round);
    }
  }
  if (!round.empty()) {
    ++num_rounds_;
    num_candidates_ += static_cast<int64_t>(round.size());
    max_round_size_ =
        std::max(max_round_size_, static_cast<int64_t>(round.size()));
  }
  return round;
}

}  // namespace crowdjoin
