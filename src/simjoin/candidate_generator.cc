#include "simjoin/candidate_generator.h"

#include <algorithm>
#include <optional>
#include <string>

#include "common/macros.h"
#include "common/rng.h"
#include "simjoin/similarity_join.h"
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

// One record stream tokenized and routed into a sharded joiner — the
// ingest half shared by the materializing machine step and the
// round-by-round feed, so side routing and id/entity bookkeeping exist
// exactly once. Only the scorer path retains record text.
struct IngestedStream {
  RecordSet retained;               // stream order; empty without a scorer
  std::vector<ObjectId> left_ids;   // record id by left/self local position
  std::vector<ObjectId> right_ids;  // record id by right local position
  std::vector<size_t> left_pos;     // stream position per side-local index,
  std::vector<size_t> right_pos;    // for scoring against `retained`
  std::vector<int32_t> entity_of;   // ground truth per stream position
};

// Only the joiner matching the source's shape is touched; the other
// pointer may be null. `collect_entities` gates the ground-truth vector
// (skipped when the caller has no use for it — the memory-lean path).
Status IngestStreamIntoJoiner(RecordSource& source,
                              const SimilarityMeasure& measure,
                              bool retain_records, bool collect_entities,
                              TokenDictionary& dictionary,
                              ShardedSelfJoiner* self_joiner,
                              ShardedBipartiteJoiner* bipartite_joiner,
                              IngestedStream& out) {
  const bool bipartite = source.meta().bipartite;
  source.Reset();
  dictionary.Reserve(static_cast<size_t>(source.meta().total_records));
  if (collect_entities) {
    out.entity_of.reserve(static_cast<size_t>(source.meta().total_records));
  }
  StreamedRecord streamed;
  size_t stream_pos = 0;
  while (source.Next(&streamed)) {
    const MeasureDoc doc =
        measure.MakeDoc(RecordText(streamed.record), dictionary);
    if (!bipartite || streamed.side == 0) {
      if (bipartite) {
        bipartite_joiner->AddLeft(doc);
      } else {
        self_joiner->Add(doc);
      }
      out.left_ids.push_back(streamed.record.id);
      if (retain_records) out.left_pos.push_back(stream_pos);
    } else {
      bipartite_joiner->AddRight(doc);
      out.right_ids.push_back(streamed.record.id);
      if (retain_records) out.right_pos.push_back(stream_pos);
    }
    if (collect_entities) out.entity_of.push_back(streamed.entity);
    if (retain_records) out.retained.push_back(std::move(streamed.record));
    ++stream_pos;
  }
  return source.status();
}

// The emission half shared by both paths: maps one verified join pair
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

}  // namespace

Result<CandidateSet> GenerateCandidates(
    const RecordSet& records, const std::vector<uint8_t>* side_of,
    const RecordScorer& scorer, const CandidateGeneratorOptions& options) {
  if (side_of != nullptr && side_of->size() != records.size()) {
    return Status::InvalidArgument("side_of size does not match records");
  }

  TokenDictionary dictionary;
  CandidateSet candidates;
  Rng noise_rng(options.noise_seed);
  const SimilarityMeasure& measure = SimilarityMeasure::Get(options.measure);

  CJ_ASSIGN_OR_RETURN(const PreparedRecords prepared,
                      scorer.Prepare(records));

  if (side_of == nullptr) {
    std::vector<MeasureDoc> docs(records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      docs[i] = measure.MakeDoc(RecordText(records[i]), dictionary);
    }
    CJ_ASSIGN_OR_RETURN(const std::vector<ScoredPair> joined,
                        MeasureSelfJoin(docs, dictionary, measure,
                                        options.token_join_threshold));
    candidates.reserve(joined.size());
    for (const ScoredPair& pair : joined) {
      const auto left = static_cast<size_t>(pair.left);
      const auto right = static_cast<size_t>(pair.right);
      CJ_ASSIGN_OR_RETURN(const double similarity,
                          prepared.Score(left, right));
      const double likelihood = NoisyLikelihood(
          similarity, options.likelihood_noise_stddev, noise_rng);
      if (likelihood >= options.min_likelihood) {
        candidates.push_back({records[left].id, records[right].id, likelihood});
      }
    }
    return candidates;
  }

  // Bipartite: split record indexes by side, join, map back.
  std::vector<MeasureDoc> left_docs;
  std::vector<MeasureDoc> right_docs;
  std::vector<size_t> left_index;
  std::vector<size_t> right_index;
  for (size_t i = 0; i < records.size(); ++i) {
    MeasureDoc doc = measure.MakeDoc(RecordText(records[i]), dictionary);
    if ((*side_of)[i] == 0) {
      left_docs.push_back(std::move(doc));
      left_index.push_back(i);
    } else {
      right_docs.push_back(std::move(doc));
      right_index.push_back(i);
    }
  }
  CJ_ASSIGN_OR_RETURN(
      const std::vector<ScoredPair> joined,
      MeasureBipartiteJoin(left_docs, right_docs, dictionary, measure,
                           options.token_join_threshold));
  candidates.reserve(joined.size());
  for (const ScoredPair& pair : joined) {
    const size_t left = left_index[static_cast<size_t>(pair.left)];
    const size_t right = right_index[static_cast<size_t>(pair.right)];
    CJ_ASSIGN_OR_RETURN(const double similarity, prepared.Score(left, right));
    const double likelihood = NoisyLikelihood(
        similarity, options.likelihood_noise_stddev, noise_rng);
    if (likelihood >= options.min_likelihood) {
      candidates.push_back({records[left].id, records[right].id, likelihood});
    }
  }
  return candidates;
}

Result<CandidateSet> GenerateCandidatesStreaming(
    RecordSource& source, const RecordScorer* scorer,
    const CandidateGeneratorOptions& options,
    const ShardedJoinOptions& sharding,
    std::vector<int32_t>* entity_of_out) {
  const bool bipartite = source.meta().bipartite;
  TokenDictionary dictionary;
  ShardedSelfJoiner self_joiner(sharding.num_shards);
  ShardedBipartiteJoiner bipartite_joiner(sharding.num_shards);
  const SimilarityMeasure& measure = SimilarityMeasure::Get(options.measure);

  // Ingest via the shared helper; records are retained only when a scorer
  // needs the text back for the likelihood blend.
  IngestedStream ingest;
  CJ_RETURN_IF_ERROR(IngestStreamIntoJoiner(
      source, measure, /*retain_records=*/scorer != nullptr,
      /*collect_entities=*/entity_of_out != nullptr, dictionary,
      &self_joiner, &bipartite_joiner, ingest));
  if (entity_of_out != nullptr) *entity_of_out = std::move(ingest.entity_of);

  // Score features are computed once per retained record; the record text
  // itself is not needed past this point.
  std::optional<PreparedRecords> prepared;
  if (scorer != nullptr) {
    CJ_ASSIGN_OR_RETURN(prepared, scorer->Prepare(ingest.retained));
    ingest.retained = RecordSet();
  }

  // Join across the worker pool.
  std::vector<ScoredPair> joined;
  {
    ThreadPool pool(sharding.num_threads);
    ThreadPool* pool_ptr = pool.num_threads() > 0 ? &pool : nullptr;
    if (!bipartite) {
      CJ_ASSIGN_OR_RETURN(
          joined, self_joiner.Finish(dictionary, measure,
                                     options.token_join_threshold, pool_ptr));
    } else {
      CJ_ASSIGN_OR_RETURN(
          joined, bipartite_joiner.Finish(dictionary, measure,
                                          options.token_join_threshold,
                                          pool_ptr));
    }
  }

  // Score survivors in the join's deterministic (left, right) order, so the
  // noise stream — and therefore the candidate set — is identical to the
  // batch path's.
  CandidateSet candidates;
  candidates.reserve(joined.size());
  Rng noise_rng(options.noise_seed);
  for (const ScoredPair& pair : joined) {
    double similarity = pair.score;
    if (prepared.has_value()) {
      const auto left = static_cast<size_t>(pair.left);
      const auto right = static_cast<size_t>(pair.right);
      CJ_ASSIGN_OR_RETURN(
          similarity,
          prepared->Score(ingest.left_pos[left],
                          bipartite ? ingest.right_pos[right]
                                    : ingest.left_pos[right]));
    }
    EmitCandidate(pair, bipartite, ingest.left_ids, ingest.right_ids,
                  similarity, options, noise_rng, candidates);
  }
  return candidates;
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
  IngestedStream ingest;
  CJ_RETURN_IF_ERROR(IngestStreamIntoJoiner(
      source, measure, /*retain_records=*/false, /*collect_entities=*/true,
      feed->dictionary_, feed->self_joiner_.get(),
      feed->bipartite_joiner_.get(), ingest));
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
