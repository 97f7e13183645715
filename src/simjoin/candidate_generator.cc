#include "simjoin/candidate_generator.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "simjoin/similarity_measure.h"
#include "simjoin/token_dictionary.h"
#include "text/normalize.h"

namespace crowdjoin {

namespace internal {

// Records routed into the sharded joiners, self or bipartite, with each
// side-local join index mapped back to its record.
struct JoinIngest {
  JoinIngest(bool bipartite, int num_shards, size_t expected_records,
             bool keep_positions)
      : left(num_shards), keep_positions(keep_positions) {
    if (bipartite) right.emplace(num_shards);
    dictionary.Reserve(expected_records);
  }

  bool bipartite() const { return right.has_value(); }

  // Adds the document of the record at position `pos` to its side.
  void Add(const MeasureDoc& doc, uint8_t side, ObjectId id, size_t pos) {
    if (!bipartite() || side == 0) {
      left.Add(doc);
      left_ids.push_back(id);
      if (keep_positions) left_pos.push_back(pos);
    } else {
      right->Add(doc);
      right_ids.push_back(id);
      if (keep_positions) right_pos.push_back(pos);
    }
  }

  // The join of everything added, self or bipartite.
  Result<ShardedJoinCursor> MakeCursor(const SimilarityMeasure& measure,
                                       double threshold,
                                       ThreadPool* pool) const {
    return left.MakeCursor(dictionary, measure, threshold, pool,
                           right.has_value() ? &*right : nullptr);
  }

  TokenDictionary dictionary;
  ShardedSelfJoiner left;                  // the self-join's or left side's
  std::optional<ShardedSelfJoiner> right;  // the right side's (bipartite)
  bool keep_positions;              // fill left_pos/right_pos (scorer path)
  std::vector<ObjectId> left_ids;   // record id by left/self local position
  std::vector<ObjectId> right_ids;  // record id by right local position
  std::vector<size_t> left_pos;     // record position per side-local index,
  std::vector<size_t> right_pos;    // for scoring prepared records
  std::vector<int32_t> entity_of;   // ground truth per stream position
};

}  // namespace internal

namespace {

using internal::JoinIngest;

// Writes the text a record joins under, `NormalizeText` of its fields each
// followed by a space, to `out`, which must have room for those; returns
// its length. Normalizing the fields one by one and joining the non-empty
// results with single spaces is the same text.
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

// One block's normalized record texts, in one buffer reused across blocks.
struct NormalizedTexts {
  std::string buffer;
  std::vector<size_t> begin;  // record i's text starts at begin[i]
  std::vector<size_t> len;

  std::string_view Get(size_t i) const {
    return std::string_view(buffer.data() + begin[i], len[i]);
  }
};

// The machine step's one ingest, a block at a time: `records` sit at stream
// positions `first_pos` on, record i on side `sides[i]` (all on the left,
// or self, side when `sides` is null). Sides are checked, texts normalized
// on `pool` into `texts`, and documents interned in record order, so token
// ids are those of a serial pass whatever the blocks.
Status IngestBlock(const RecordSet& records, const uint8_t* sides,
                   size_t first_pos, const SimilarityMeasure& measure,
                   ThreadPool* pool, NormalizedTexts& texts,
                   JoinIngest& ingest) {
  const size_t n = records.size();
  for (size_t i = 0; sides != nullptr && i < n; ++i) {
    if (sides[i] > 1) {
      return Status::InvalidArgument(
          StrFormat("record %zu has side %d; a side is 0 or 1", first_pos + i,
                    static_cast<int>(sides[i])));
    }
  }
  // The text buffers are sized here (normalizing never lengthens text) and
  // keep their capacity from block to block, so the workers allocate
  // nothing: memory they grew would stay in their malloc arenas.
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
  for (size_t i = 0; i < n; ++i) {
    ingest.Add(measure.MakeNormalizedDoc(texts.Get(i), ingest.dictionary),
               sides == nullptr ? 0 : sides[i], records[i].id, first_pos + i);
  }
  return Status::OK();
}

// A join pair's two side-local indexes mapped through `left` / `right`
// (record ids or positions); a self-join maps both through `left`.
template <typename T>
std::pair<T, T> MapPair(const ScoredPair& pair, bool bipartite,
                        const std::vector<T>& left,
                        const std::vector<T>& right) {
  const auto a = static_cast<size_t>(pair.left);
  const auto b = static_cast<size_t>(pair.right);
  return {left[a], bipartite ? right[b] : left[b]};
}

// Score -> noise -> cut -> emit, the machine step's one emission pass, over
// one batch of the join's sorted runs in place. `noise_rng` stands at the
// batch's first pair and is left past its last: one Normal() per joined
// pair, kept or not, in join order.
//
// The runs are cut into left-id ranges of about equal pair counts. Each
// range starts the noise stream where a walk in join order would stand at
// its first pair, then, on `pool`, reads its pairs in join order through a
// k-way merge: scores each with a row cursor (when `prepared` is set; the
// join scores stand otherwise), draws its noise, writes the likelihood back
// and counts the pairs that pass the cut, stopping at its first failing
// pair, so the lowest failing range's error is the first in join order. A
// second pass writes each range's kept pairs at its offset in the result.
// Neither pass builds a merged copy beside the runs: one, whose memory the
// pool's threads then kept, raised peak RSS by about 15%.
Result<CandidateSet> JoinScoreEmit(internal::SortedRuns runs,
                                   const JoinIngest& ingest,
                                   const PreparedRecords* prepared,
                                   const CandidateGeneratorOptions& options,
                                   Rng& noise_rng, ThreadPool* pool) {
  const std::vector<std::vector<size_t>> cuts =
      internal::CutRunsByLeftId(runs, pool);
  const size_t num_ranges = cuts.size() - 1;

  // The last cut holds every run's size: its skip ends past the batch.
  const double stddev = options.likelihood_noise_stddev;
  std::vector<Rng::State> noise(num_ranges);
  size_t drawn = 0;
  for (size_t r = 0; r <= num_ranges; ++r) {
    size_t rank = 0;
    for (const size_t start : cuts[r]) rank += start;
    if (stddev > 0.0) noise_rng.SkipNormals(rank - drawn);
    drawn = rank;
    if (r < num_ranges) noise[r] = noise_rng.SaveState();
  }

  const bool bipartite = ingest.bipartite();
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
                const auto [i, j] = MapPair(pair, bipartite, ingest.left_pos,
                                            ingest.right_pos);
                const Result<double> similarity = cursor->Score(i, j);
                if (!similarity.ok()) {
                  pass.status = similarity.status();
                  return false;
                }
                pair.score = similarity.value();
              }
              if (stddev > 0.0) {
                pair.score = std::clamp(
                    pair.score + range_rng.Normal(0.0, stddev), 0.01, 0.99);
              }
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
            const auto [id_a, id_b] =
                MapPair(pair, bipartite, ingest.left_ids, ingest.right_ids);
            *next++ = {id_a, id_b, pair.score};
          }
          return true;
        });
    return 0;
  });
  return candidates;
}

}  // namespace

Result<CandidateSet> internal::GenerateCandidatesOn(
    const RecordSet& records, const std::vector<uint8_t>* side_of,
    const RecordScorer& scorer, const CandidateGeneratorOptions& options,
    int num_shards, ThreadPool* pool) {
  if (side_of != nullptr && side_of->size() != records.size()) {
    return Status::InvalidArgument("side_of size does not match records");
  }
  const SimilarityMeasure& measure = SimilarityMeasure::Get(options.measure);
  JoinIngest ingest(/*bipartite=*/side_of != nullptr, num_shards,
                    records.size(), /*keep_positions=*/true);
  {
    // The records are one block; their texts are freed before the join.
    NormalizedTexts texts;
    CJ_RETURN_IF_ERROR(IngestBlock(
        records, side_of == nullptr ? nullptr : side_of->data(),
        /*first_pos=*/0, measure, pool, texts, ingest));
  }
  CJ_ASSIGN_OR_RETURN(const PreparedRecords prepared,
                      scorer.Prepare(records, pool));
  internal::SortedRuns runs;
  {
    // The cursor and its prefix indexes are gone before the emission pass.
    CJ_ASSIGN_OR_RETURN(
        ShardedJoinCursor cursor,
        ingest.MakeCursor(measure, options.token_join_threshold, pool));
    CJ_ASSIGN_OR_RETURN(
        runs, cursor.NextBatchRuns(std::numeric_limits<int64_t>::max(), pool));
  }
  Rng noise_rng(options.noise_seed);
  return JoinScoreEmit(std::move(runs), ingest, &prepared, options, noise_rng,
                       pool);
}

Result<CandidateSet> GenerateCandidates(
    const RecordSet& records, const std::vector<uint8_t>* side_of,
    const RecordScorer& scorer, const CandidateGeneratorOptions& options) {
  // The default shard count: 8, 16 and 32 shards timed alike here.
  return internal::GenerateCandidatesOn(
      records, side_of, scorer, options, /*num_shards=*/0,
      ThreadPool::HardwareThreads() > 1 ? &SharedPool() : nullptr);
}

// ---------------------------------------------------------------------------
// StreamingCandidateFeed
// ---------------------------------------------------------------------------

StreamingCandidateFeed::StreamingCandidateFeed(const Options& options,
                                               const StreamMeta& meta)
    : options_(options),
      ingest_(std::make_unique<JoinIngest>(
          meta.bipartite, options.sharding.num_shards,
          static_cast<size_t>(meta.total_records), /*keep_positions=*/false)),
      pool_(options.sharding.num_threads),
      noise_rng_(options.candidates.noise_seed) {}

StreamingCandidateFeed::~StreamingCandidateFeed() = default;

const std::vector<int32_t>& StreamingCandidateFeed::entity_of() const {
  return ingest_->entity_of;
}

std::vector<int32_t> StreamingCandidateFeed::TakeEntityOf() {
  return std::exchange(ingest_->entity_of, {});
}

Result<std::unique_ptr<StreamingCandidateFeed>> StreamingCandidateFeed::Open(
    RecordSource& source, const Options& options) {
  // make_unique cannot reach the private constructor.
  std::unique_ptr<StreamingCandidateFeed> feed(
      new StreamingCandidateFeed(options, source.meta()));
  ThreadPool* pool = &feed->pool_;
  JoinIngest& ingest = *feed->ingest_;
  ingest.entity_of.reserve(static_cast<size_t>(source.meta().total_records));

  // The source is read a block at a time into one reused block: swapping
  // each streamed record in hands the source the block's previous record,
  // whose field buffers it refills. A short block ends the stream.
  const SimilarityMeasure& measure =
      SimilarityMeasure::Get(options.candidates.measure);
  constexpr size_t kBlock = internal::kIngestBlockRecords;
  RecordSet block(kBlock);
  std::vector<uint8_t> sides(kBlock);
  NormalizedTexts texts;
  StreamedRecord streamed;
  source.Reset();
  size_t first_pos = 0;
  for (size_t n = kBlock; n == kBlock; first_pos += n) {
    for (n = 0; n < kBlock && source.Next(&streamed); ++n) {
      std::swap(block[n], streamed.record);
      sides[n] = streamed.side;
      ingest.entity_of.push_back(streamed.entity);
    }
    block.resize(n);
    CJ_RETURN_IF_ERROR(
        IngestBlock(block, ingest.bipartite() ? sides.data() : nullptr,
                    first_pos, measure, pool, texts, ingest));
  }
  CJ_RETURN_IF_ERROR(source.status());

  // Prepare the join (phase 1) and park the task cursor.
  CJ_ASSIGN_OR_RETURN(
      ShardedJoinCursor cursor,
      ingest.MakeCursor(measure, options.candidates.token_join_threshold,
                        pool));
  feed->cursor_.emplace(std::move(cursor));
  return feed;
}

Result<CandidateSet> StreamingCandidateFeed::NextRound() {
  CandidateSet round;
  // A task batch can come back empty (or die entirely at the likelihood
  // cut); keep draining so an empty return always means end-of-stream.
  while (round.empty() && cursor_.has_value()) {
    const int64_t tasks = options_.tasks_per_round;
    CJ_ASSIGN_OR_RETURN(internal::SortedRuns runs,
                        cursor_->NextBatchRuns(tasks > 0 ? tasks : 8, &pool_));
    // The cursor and its prefix indexes go before the last emission pass.
    if (cursor_->done()) cursor_.reset();
    CJ_ASSIGN_OR_RETURN(round,
                        JoinScoreEmit(std::move(runs), *ingest_,
                                      /*prepared=*/nullptr,
                                      options_.candidates, noise_rng_, &pool_));
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
