#ifndef CROWDJOIN_SIMJOIN_SHARDED_JOIN_H_
#define CROWDJOIN_SIMJOIN_SHARDED_JOIN_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "simjoin/similarity_join.h"
#include "simjoin/similarity_measure.h"
#include "simjoin/token_dictionary.h"

namespace crowdjoin {

class ShardedJoinCursor;

/// Knobs of the sharded parallel join.
struct ShardedJoinOptions {
  /// Number of document shards; <= 0 picks the default (16). More shards
  /// mean finer-grained probe tasks (self-join: S*(S+1)/2 of them) and
  /// smaller per-task working sets; output is identical for every value.
  int num_shards = 0;
  /// Worker threads for the convenience wrappers that own their pool;
  /// <= 0 runs inline. (`Finish` takes an external pool instead.)
  int num_threads = 0;
};

/// \brief Sharded, pool-parallel similarity join with streaming ingestion
/// — the scale path of the machine step.
///
/// Documents are `Add`ed one at a time (round-robin across shards, O(1)
/// amortized per document, flat arena storage per shard) as records stream
/// in; `Finish` then builds each shard's rarity-ordered prefix index in
/// parallel on the given `ThreadPool`, fans the shard-vs-shard probe tasks
/// across the pool (each pool chunk of tasks sorting its own output), and
/// merges the sorted outputs on the pool into one (left, right)-sorted
/// result.
///
/// One joiner holds one collection. `Finish` and `MakeCursor` self-join it
/// by default; given a second joiner `right`, they run the bipartite
/// (cross-catalog) join instead: this joiner's documents are the left side
/// and carry the prefix index, `right`'s documents probe it, and every
/// left-shard x right-shard pairing becomes one probe task. The join runs
/// under any `SimilarityMeasure`; measure documents carry their signature
/// tokens, measure size, and verification payload into the shard arenas.
///
/// Determinism contract: the returned pairs are **byte-identical** to the
/// brute-force reference (`BruteForceMeasureSelfJoin` /
/// `BruteForceMeasureBipartiteJoin`) over the same documents — same pair
/// set, same scores, same order — for every shard count and thread count,
/// including the inline (0-thread) pool. Each qualifying pair is produced
/// by exactly one task and scored with the measure's exact kernel.
///
/// A joiner may be `Finish`ed repeatedly (e.g. at several thresholds); the
/// ingested documents are immutable once added. Not thread-safe for
/// concurrent `Add` calls; `Finish` only reads.
class ShardedSelfJoiner {
 public:
  explicit ShardedSelfJoiner(int num_shards = 0);

  /// Ingests one measure document (`SimilarityMeasure::MakeDoc`). The
  /// document's global id is its `Add` order, matching the doc indexing of
  /// the brute-force references.
  void Add(const MeasureDoc& doc);

  int64_t num_docs() const { return num_docs_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Runs the join at `threshold` under `measure` over everything added so
  /// far, fanning work across `pool` (nullptr = inline): a self-join, or
  /// with `right` the bipartite join of this joiner's documents (left)
  /// with `right`'s. `dictionary` must contain every token id that was
  /// added and be fully populated (frequencies final): the prefixes follow
  /// its rarity order. `right == this` is an InvalidArgument: that join
  /// would pair each document with itself and emit every other pair twice,
  /// where the self-join emits each once.
  Result<std::vector<ScoredPair>> Finish(
      const TokenDictionary& dictionary, const SimilarityMeasure& measure,
      double threshold, ThreadPool* pool,
      const ShardedSelfJoiner* right = nullptr) const;

  /// Prepares the join (phase 1, fanned across `pool`) and returns a
  /// cursor that drains the shard-vs-shard probe tasks incrementally — the
  /// round-by-round feed of the streaming labeling path. The joiners,
  /// dictionary and measure must outlive the cursor; `Finish` is
  /// equivalent to draining a fresh cursor in one batch.
  Result<ShardedJoinCursor> MakeCursor(
      const TokenDictionary& dictionary, const SimilarityMeasure& measure,
      double threshold, ThreadPool* pool,
      const ShardedSelfJoiner* right = nullptr) const;

 private:
  friend class ShardedJoinCursor;

  /// Flat arena of one shard's documents.
  struct Shard {
    std::vector<int32_t> doc_ids;  ///< global ids, ingestion order
    std::vector<int32_t> tokens;   ///< concatenated sorted-unique token ids
    std::vector<int64_t> offsets = {0};  ///< doc d = tokens[offsets[d]..offsets[d+1])
    std::vector<int32_t> sizes;    ///< per-doc measure size
    std::vector<char> payloads;    ///< concatenated verification payloads
    std::vector<int64_t> payload_offsets = {0};

    void Append(int32_t global_id, const MeasureDoc& doc);
    size_t size() const { return doc_ids.size(); }
    std::string_view payload(size_t d) const {
      return std::string_view(
          payloads.data() + payload_offsets[d],
          static_cast<size_t>(payload_offsets[d + 1] - payload_offsets[d]));
    }
  };

  /// Per-shard rank order + flat prefix postings, built in parallel by
  /// `Finish` from the dictionary-wide rarity permutation (computed once
  /// and shared across shards).
  struct Prepared;

  template <typename Policy>
  static Prepared PrepareT(const Policy& policy, const Shard& shard,
                           const std::vector<int32_t>& ranks,
                           double threshold, bool build_index);
  template <typename Policy>
  static void ProbeTaskT(const Policy& policy, const Shard& target_raw,
                         const Prepared& target, const Shard& probe_raw,
                         const Prepared& probe, bool same_shard,
                         bool bipartite_emit, double threshold,
                         std::vector<ScoredPair>& out);

  std::vector<Shard> shards_;
  int64_t num_docs_ = 0;
};

/// \brief Incremental driver over a prepared sharded join: instead of one
/// `Finish` call producing every qualifying pair at once, the probe tasks
/// are drained in caller-sized batches, so the join's output can feed a
/// labeling session round by round without the full result ever being
/// materialized (peak pair memory = one batch).
///
/// Determinism: tasks run in the same fixed order `Finish` uses and each
/// batch is (left, right)-sorted, so the concatenation of all batches is a
/// deterministic partition of exactly the pair set `Finish` returns — for
/// every shard count, thread count, and batch size.
class ShardedJoinCursor {
 public:
  ~ShardedJoinCursor();
  ShardedJoinCursor(ShardedJoinCursor&&) noexcept;
  ShardedJoinCursor& operator=(ShardedJoinCursor&&) noexcept;

  /// Total probe tasks (self-join: S*(S+1)/2; bipartite: S_left*S_right).
  int64_t num_tasks() const;
  /// Tasks already drained.
  int64_t tasks_done() const;
  bool done() const { return tasks_done() >= num_tasks(); }

  /// Runs the next `min(max_tasks, remaining)` probe tasks across `pool`
  /// (nullptr = inline) and returns their merged, sorted output. Empty
  /// once `done()`. `max_tasks` must be >= 1.
  Result<std::vector<ScoredPair>> NextBatch(int64_t max_tasks,
                                            ThreadPool* pool);

  /// `NextBatch` without its merge: the batch's pairs as a few runs, one
  /// per pool chunk of consecutive tasks (one run without a pool), each
  /// sorted by `PairOrderLess`, no key in two runs; so
  /// `internal::MergeSortedRuns` of the result is exactly `NextBatch`. For
  /// callers that read the pairs once, in order
  /// (`internal::ForEachInPairOrder`), without a merged copy beside the
  /// runs.
  Result<std::vector<std::vector<ScoredPair>>> NextBatchRuns(
      int64_t max_tasks, ThreadPool* pool);

 private:
  friend class ShardedSelfJoiner;

  struct Impl;
  explicit ShardedJoinCursor(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

namespace internal {

/// Join outputs in runs, each sorted by `PairOrderLess`, no (left, right)
/// key in two runs.
using SortedRuns = std::vector<std::vector<ScoredPair>>;

/// A pair's (left, right) packed into one integer. Join indexes are
/// non-negative, so the keys order exactly as `PairOrderLess` does.
inline uint64_t PairKey(const ScoredPair& pair) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(pair.left)) << 32) |
         static_cast<uint32_t>(pair.right);
}

/// \brief `pairs` sorted by `PairOrderLess` into an exact-size vector, for
/// pairs with non-negative indexes: an LSD radix sort on `PairKey`, one
/// stable pass per key byte that varies across the pairs. The passes
/// alternate between the result and `pairs`, whose contents are
/// unspecified afterwards, so the sort needs no buffer beyond its result.
std::vector<ScoredPair> RadixSortedCopy(std::vector<ScoredPair>& pairs);

/// Calls `fn(pair)` for the pairs of every slice runs[k][begin[k], end[k])
/// in (left, right) order, until `fn` returns false: a k-way merge over a
/// min-heap of run cursors, each keyed by its next pair's `PairKey`. `fn`
/// takes a `ScoredPair&` when `runs` is mutable, so a pass may rewrite each
/// score in place.
template <typename Runs, typename Fn>
void ForEachInPairOrder(Runs& runs, const std::vector<size_t>& begin,
                        const std::vector<size_t>& end, Fn&& fn) {
  using Pair = std::remove_pointer_t<decltype(runs.front().data())>;
  struct Cursor {
    uint64_t key;
    Pair* next;
    Pair* end;
  };
  std::vector<Cursor> heap;
  for (size_t k = 0; k < runs.size(); ++k) {
    if (begin[k] < end[k]) {
      Pair* next = runs[k].data() + begin[k];
      heap.push_back({PairKey(*next), next, runs[k].data() + end[k]});
    }
  }
  const auto sift_down = [&heap](size_t at) {
    const Cursor moving = heap[at];
    for (;;) {
      size_t child = 2 * at + 1;
      if (child >= heap.size()) break;
      if (child + 1 < heap.size() && heap[child + 1].key < heap[child].key) {
        ++child;
      }
      if (moving.key <= heap[child].key) break;
      heap[at] = heap[child];
      at = child;
    }
    heap[at] = moving;
  };
  for (size_t at = heap.size() / 2; at-- > 0;) sift_down(at);
  while (!heap.empty()) {
    Cursor& top = heap.front();
    if (!fn(*top.next)) return;
    if (++top.next == top.end) {
      top = heap.back();
      heap.pop_back();
      if (heap.empty()) break;
    } else {
      top.key = PairKey(*top.next);
    }
    sift_down(0);
  }
}

/// \brief Cuts `runs` at left-id boundaries into ranges holding about equal
/// pair counts, as many as `pool` has use for: up to four per worker, none
/// under 4096 pairs, and one range without a pool (or with a one-worker
/// pool).
///
/// `cuts[r][k]` is where range r starts in run k; the last entry holds
/// every run's size. Taken in order, the ranges are the pairs in (left,
/// right) order, so range r's first pair has join-order rank
/// `sum_k cuts[r][k]`. Empty runs are allowed; with no pairs at all there
/// is one empty range.
std::vector<std::vector<size_t>> CutRunsByLeftId(const SortedRuns& runs,
                                                 ThreadPool* pool);

/// \brief The tail of every sharded join: merges sorted runs into one
/// (left, right)-sorted vector.
///
/// The result is exactly the runs concatenated and `SortByPairOrder`ed,
/// for every pool. The runs are cut into ranges (`CutRunsByLeftId`), and
/// each range is k-way merged from its slice of every run into its own
/// part of one presized output, fanned across `pool` (nullptr, or a pool of
/// <= 1 worker, merges on the caller). A lone non-empty run is returned as
/// is, without a copy.
std::vector<ScoredPair> MergeSortedRuns(SortedRuns runs, ThreadPool* pool);

}  // namespace internal

/// Convenience wrapper: sharded measure self-join over measure documents.
/// Owns a pool of `options.num_threads` workers for the duration of the
/// call.
Result<std::vector<ScoredPair>> ShardedMeasureSelfJoin(
    const std::vector<MeasureDoc>& docs, const TokenDictionary& dictionary,
    const SimilarityMeasure& measure, double threshold,
    const ShardedJoinOptions& options);

/// Convenience wrapper: sharded measure bipartite join.
Result<std::vector<ScoredPair>> ShardedMeasureBipartiteJoin(
    const std::vector<MeasureDoc>& left, const std::vector<MeasureDoc>& right,
    const TokenDictionary& dictionary, const SimilarityMeasure& measure,
    double threshold, const ShardedJoinOptions& options);

}  // namespace crowdjoin

#endif  // CROWDJOIN_SIMJOIN_SHARDED_JOIN_H_
