#include "simjoin/candidate_generator.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "simjoin/similarity_measure.h"
#include "simjoin/token_dictionary.h"
#include "text/normalize.h"

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

// Writes `NormalizeText(RecordText(record))` to `out`, which must have room
// for `RecordText(record).size()` chars; returns its length. Normalizing
// the fields one by one and joining the non-empty results with single
// spaces is the same text.
size_t NormalizeRecordInto(const Record& record, char* out) {
  size_t len = 0;
  for (const auto& field : record.fields) {
    const size_t start = len == 0 ? 0 : len + 1;
    const size_t field_len = NormalizeTextInto(field, out + start);
    if (field_len == 0) continue;
    if (len > 0) out[len] = ' ';
    len = start + field_len;
  }
  return len;
}

// Every record's normalized text, in one buffer.
struct NormalizedTexts {
  std::string buffer;
  std::vector<size_t> begin;  // record i's text starts at begin[i]
  std::vector<size_t> len;

  std::string_view Get(size_t i) const {
    return std::string_view(buffer.data() + begin[i], len[i]);
  }
};

// Normalizes `records` on `pool`, one task per record range. The buffer is
// sized on the caller (normalizing never lengthens text), so the workers
// allocate nothing: memory they grew would stay in their malloc arenas.
NormalizedTexts NormalizeRecords(const RecordSet& records, ThreadPool* pool) {
  const size_t n = records.size();
  NormalizedTexts texts;
  texts.begin.assign(n + 1, 0);
  texts.len.resize(n);
  for (size_t i = 0; i < n; ++i) {
    size_t room = 0;
    for (const auto& field : records[i].fields) room += field.size() + 1;
    texts.begin[i + 1] = texts.begin[i] + room;
  }
  texts.buffer.resize(texts.begin[n]);
  const int workers = pool == nullptr ? 0 : pool->num_threads();
  const size_t num_ranges = std::clamp<size_t>(static_cast<size_t>(workers),
                                               1, std::max<size_t>(n, 1));
  ParallelMap(pool, static_cast<int64_t>(num_ranges), [&](int64_t r) {
    const auto range = static_cast<size_t>(r);
    for (size_t i = n * range / num_ranges; i < n * (range + 1) / num_ranges;
         ++i) {
      texts.len[i] = NormalizeRecordInto(
          records[i], texts.buffer.data() + texts.begin[i]);
    }
    return 0;
  });
  return texts;
}

// Records routed into the sharded joiners, self or bipartite, with each
// side-local join index mapped back to its record — the ingest half shared
// by the materializing machine step, its streaming form and the
// round-by-round feed, so side routing, id/entity bookkeeping and the
// join's shape exist exactly once.
struct JoinIngest {
  explicit JoinIngest(bool bipartite, int num_shards = 0)
      : bipartite(bipartite), left(num_shards), right(num_shards) {}

  bool bipartite;
  ShardedSelfJoiner left;           // the self-join's or left side's docs
  ShardedSelfJoiner right;          // the right side's docs (bipartite)
  bool keep_positions = false;      // fill left_pos/right_pos (scorer path)
  std::vector<ObjectId> left_ids;   // record id by left/self local position
  std::vector<ObjectId> right_ids;  // record id by right local position
  std::vector<size_t> left_pos;     // record position per side-local index,
  std::vector<size_t> right_pos;    // for scoring prepared records
  std::vector<int32_t> entity_of;   // ground truth per stream position

  // Adds the document of the record at position `pos` to its side.
  void Add(const MeasureDoc& doc, uint8_t side, ObjectId id, size_t pos) {
    if (!bipartite || side == 0) {
      left.Add(doc);
      left_ids.push_back(id);
      if (keep_positions) left_pos.push_back(pos);
    } else {
      right.Add(doc);
      right_ids.push_back(id);
      if (keep_positions) right_pos.push_back(pos);
    }
  }

  // The join of everything added, self or bipartite.
  Result<ShardedJoinCursor> MakeCursor(const TokenDictionary& dictionary,
                                       const SimilarityMeasure& measure,
                                       double threshold,
                                       ThreadPool* pool) const {
    return left.MakeCursor(dictionary, measure, threshold, pool,
                           bipartite ? &right : nullptr);
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

// What `left` / `right` hold for a join pair's two documents, indexed by
// side-local join index: record ids or record positions. A self-join
// indexes both documents through `left`.
template <typename T>
std::pair<T, T> MapPair(const ScoredPair& pair, bool bipartite,
                        const std::vector<T>& left,
                        const std::vector<T>& right) {
  const auto a = static_cast<size_t>(pair.left);
  const auto b = static_cast<size_t>(pair.right);
  return {left[a], bipartite ? right[b] : left[b]};
}

// The streaming feed's emission: maps one join pair back to record ids,
// noises its join score into a likelihood, applies the cut.
void EmitCandidate(const ScoredPair& pair, bool bipartite,
                   const std::vector<ObjectId>& left_ids,
                   const std::vector<ObjectId>& right_ids,
                   const CandidateGeneratorOptions& options, Rng& noise_rng,
                   CandidateSet& out) {
  const double likelihood = NoisyLikelihood(
      pair.score, options.likelihood_noise_stddev, noise_rng);
  if (likelihood >= options.min_likelihood) {
    const auto [id_a, id_b] = MapPair(pair, bipartite, left_ids, right_ids);
    out.push_back({id_a, id_b, likelihood});
  }
}

// Joins everything ingested on `pool` into sorted runs; the join
// cursor (and its prefix indexes) is gone when this returns.
Result<internal::SortedRuns> JoinIngested(const JoinIngest& ingest,
                                          const TokenDictionary& dictionary,
                                          const SimilarityMeasure& measure,
                                          double threshold, ThreadPool* pool) {
  CJ_ASSIGN_OR_RETURN(
      ShardedJoinCursor cursor,
      ingest.MakeCursor(dictionary, measure, threshold, pool));
  return cursor.NextBatchRuns(std::max<int64_t>(cursor.num_tasks(), 1), pool);
}

// Join -> score -> noise -> cut, shared by both materializing paths, as
// one pass over the joined runs in place. The runs are cut into left-id
// ranges of about equal pair counts (one range without a pool). Each range
// starts the noise stream where a walk in join order would stand at its
// first pair, then, on `pool`, reads its pairs in join order through a
// k-way merge: scores each (when `prepared` is set; the join scores stand
// otherwise) with a row cursor, draws its noise, writes the likelihood back
// into the run and counts the pairs that pass the cut, stopping at its
// first failing pair. Ranges are in join order, so the lowest range's error
// is the first in join order. A second pass writes each range's kept pairs
// at its offset in the exactly sized result. Neither pass builds a merged
// copy beside the runs: one, whose memory the pool's threads then kept,
// raised peak RSS by about 15%.
Result<CandidateSet> JoinScoreEmit(const JoinIngest& ingest,
                                   const TokenDictionary& dictionary,
                                   const SimilarityMeasure& measure,
                                   const PreparedRecords* prepared,
                                   const CandidateGeneratorOptions& options,
                                   ThreadPool* pool) {
  CJ_ASSIGN_OR_RETURN(internal::SortedRuns runs,
                      JoinIngested(ingest, dictionary, measure,
                                   options.token_join_threshold, pool));
  const std::vector<std::vector<size_t>> cuts =
      internal::CutRunsByLeftId(runs, pool);
  const size_t num_ranges = cuts.size() - 1;

  // One Normal() per joined pair, kept or not, in join order.
  const double stddev = options.likelihood_noise_stddev;
  std::vector<Rng::State> noise(num_ranges);
  Rng noise_rng(options.noise_seed);
  size_t drawn = 0;
  for (size_t r = 0; r < num_ranges; ++r) {
    size_t rank = 0;
    for (const size_t start : cuts[r]) rank += start;
    if (stddev > 0.0) noise_rng.SkipNormals(rank - drawn);
    drawn = rank;
    noise[r] = noise_rng.SaveState();
  }

  struct RangePass {
    Status status;
    size_t kept = 0;
  };
  const std::vector<RangePass> passes = ParallelMap(
      pool, static_cast<int64_t>(num_ranges), [&](int64_t r) -> RangePass {
        const auto range = static_cast<size_t>(r);
        Rng range_rng;
        range_rng.RestoreState(noise[range]);
        std::optional<PreparedRecords::RowCursor> cursor;
        if (prepared != nullptr) cursor.emplace(*prepared);
        RangePass pass;
        internal::ForEachInPairOrder(
            runs, cuts[range], cuts[range + 1], [&](ScoredPair& pair) {
              if (cursor.has_value()) {
                const auto [i, j] = MapPair(pair, ingest.bipartite,
                                            ingest.left_pos, ingest.right_pos);
                const Result<double> similarity = cursor->Score(i, j);
                if (!similarity.ok()) {
                  pass.status = similarity.status();
                  return false;
                }
                pair.score = similarity.value();
              }
              pair.score = NoisyLikelihood(pair.score, stddev, range_rng);
              if (pair.score >= options.min_likelihood) ++pass.kept;
              return true;
            });
        return pass;
      });
  std::vector<size_t> offsets(num_ranges + 1);
  for (size_t r = 0; r < num_ranges; ++r) {
    CJ_RETURN_IF_ERROR(passes[r].status);
    offsets[r + 1] = offsets[r] + passes[r].kept;
  }

  CandidateSet candidates(offsets.back());
  ParallelMap(pool, static_cast<int64_t>(num_ranges), [&](int64_t r) {
    const auto range = static_cast<size_t>(r);
    CandidatePair* next = candidates.data() + offsets[range];
    internal::ForEachInPairOrder(
        runs, cuts[range], cuts[range + 1], [&](const ScoredPair& pair) {
          if (pair.score >= options.min_likelihood) {
            const auto [id_a, id_b] = MapPair(
                pair, ingest.bipartite, ingest.left_ids, ingest.right_ids);
            *next++ = {id_a, id_b, pair.score};
          }
          return true;
        });
    return 0;
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
  ThreadPool* pool =
      ThreadPool::HardwareThreads() > 1 ? &SharedPool() : nullptr;
  CJ_ASSIGN_OR_RETURN(const PreparedRecords prepared,
                      scorer.Prepare(records, pool));

  const SimilarityMeasure& measure = SimilarityMeasure::Get(options.measure);
  TokenDictionary dictionary;
  dictionary.Reserve(records.size());
  // The default shard count: 8, 16 and 32 shards timed alike here.
  JoinIngest ingest(/*bipartite=*/side_of != nullptr);
  ingest.keep_positions = true;
  {
    // Record text is normalized on the pool, then tokenized and interned in
    // record order, so token ids and frequencies are those of a serial
    // pass. The texts are freed before the join.
    const NormalizedTexts texts = NormalizeRecords(records, pool);
    for (size_t i = 0; i < records.size(); ++i) {
      ingest.Add(measure.MakeNormalizedDoc(texts.Get(i), dictionary),
                 side_of == nullptr ? 0 : (*side_of)[i], records[i].id, i);
    }
  }
  return JoinScoreEmit(ingest, dictionary, measure, &prepared, options, pool);
}

Result<CandidateSet> GenerateCandidatesStreaming(
    RecordSource& source, const RecordScorer* scorer,
    const CandidateGeneratorOptions& options,
    const ShardedJoinOptions& sharding,
    std::vector<int32_t>* entity_of_out) {
  TokenDictionary dictionary;
  const SimilarityMeasure& measure = SimilarityMeasure::Get(options.measure);

  // Records are retained only when a scorer needs the text back for the
  // likelihood blend.
  JoinIngest ingest(source.meta().bipartite, sharding.num_shards);
  ingest.keep_positions = scorer != nullptr;
  RecordSet retained;
  CJ_RETURN_IF_ERROR(IngestStreamIntoJoiner(
      source, measure, /*collect_entities=*/entity_of_out != nullptr,
      dictionary, scorer != nullptr ? &retained : nullptr, ingest));
  if (entity_of_out != nullptr) *entity_of_out = std::move(ingest.entity_of);

  // Score features are computed once per retained record; the record text
  // itself is not needed past this point.
  ThreadPool pool(sharding.num_threads);
  ThreadPool* pool_ptr = pool.num_threads() > 0 ? &pool : nullptr;
  std::optional<PreparedRecords> prepared;
  if (scorer != nullptr) {
    CJ_ASSIGN_OR_RETURN(prepared, scorer->Prepare(retained, pool_ptr));
    retained = RecordSet();
  }
  return JoinScoreEmit(ingest, dictionary, measure,
                       prepared.has_value() ? &*prepared : nullptr, options,
                       pool_ptr);
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
      noise_rng_(options.candidates.noise_seed) {}

StreamingCandidateFeed::~StreamingCandidateFeed() = default;

Result<std::unique_ptr<StreamingCandidateFeed>> StreamingCandidateFeed::Open(
    RecordSource& source, const Options& options) {
  const bool bipartite = source.meta().bipartite;
  // make_unique cannot reach the private constructor.
  std::unique_ptr<StreamingCandidateFeed> feed(
      new StreamingCandidateFeed(options, bipartite));

  // Shared ingest, scorer-free: nothing but token docs and ids is
  // retained.
  const SimilarityMeasure& measure =
      SimilarityMeasure::Get(options.candidates.measure);
  JoinIngest ingest(bipartite, options.sharding.num_shards);
  CJ_RETURN_IF_ERROR(IngestStreamIntoJoiner(
      source, measure, /*collect_entities=*/true, feed->dictionary_,
      /*retained=*/nullptr, ingest));
  feed->left_joiner_ = std::move(ingest.left);
  feed->right_joiner_ = std::move(ingest.right);
  feed->left_ids_ = std::move(ingest.left_ids);
  feed->right_ids_ = std::move(ingest.right_ids);
  feed->entity_of_ = std::move(ingest.entity_of);

  // Prepare the join (phase 1) and park the task cursor. The measure
  // singleton outlives the cursor by construction.
  ThreadPool* pool = feed->pool_.num_threads() > 0 ? &feed->pool_ : nullptr;
  CJ_ASSIGN_OR_RETURN(
      ShardedJoinCursor cursor,
      feed->left_joiner_.MakeCursor(
          feed->dictionary_, measure, options.candidates.token_join_threshold,
          pool, bipartite ? &feed->right_joiner_ : nullptr));
  feed->cursor_.emplace(std::move(cursor));
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
      EmitCandidate(pair, bipartite_, left_ids_, right_ids_,
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
