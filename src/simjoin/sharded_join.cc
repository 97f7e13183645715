#include "simjoin/sharded_join.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/tracing.h"
#include "simjoin/measure_policy.h"
#include "simjoin/postings_index.h"
#include "simjoin/prefix_filter.h"
#include "text/set_similarity.h"

namespace crowdjoin {

namespace {

constexpr int kDefaultNumShards = 16;

// Join-layer instrumentation, incremented once per probe task (never per
// candidate) so the hot gather/verify loops stay metric-free.
struct JoinMetrics {
  obs::Counter* probe_tasks_total;
  obs::Counter* posting_visits_total;
  obs::Counter* prefilter_candidates_total;
  obs::Counter* pairs_emitted_total;

  static JoinMetrics& Get() {
    static JoinMetrics metrics{
        obs::MetricsRegistry::Global().GetCounter("simjoin.probe_tasks_total"),
        obs::MetricsRegistry::Global().GetCounter(
            "simjoin.posting_visits_total"),
        obs::MetricsRegistry::Global().GetCounter(
            "simjoin.prefilter_candidates_total"),
        obs::MetricsRegistry::Global().GetCounter(
            "simjoin.pairs_emitted_total")};
    return metrics;
  }
};

int ResolveShardCount(int requested) {
  return requested > 0 ? requested : kDefaultNumShards;
}

// Below this many pairs per range a merge is not worth a pool task.
constexpr size_t kMinPairsPerRange = 4096;

// Position in a sorted run of its first pair whose left id is >= `left`.
size_t FirstAtOrAfter(const std::vector<ScoredPair>& run, int64_t left) {
  return static_cast<size_t>(
      std::lower_bound(
          run.begin(), run.end(), left,
          [](const ScoredPair& pair, int64_t id) { return pair.left < id; }) -
      run.begin());
}

// Pairs across `runs` whose left id is below `left`.
size_t CountLeftBelow(const internal::SortedRuns& runs, int64_t left) {
  size_t count = 0;
  for (const std::vector<ScoredPair>& run : runs) {
    count += FirstAtOrAfter(run, left);
  }
  return count;
}

// The smallest left id in [lo, hi] with at least `target` pairs below it;
// `hi` must have all of them below it.
int64_t LeftIdWithRankBelow(const internal::SortedRuns& runs, size_t target,
                            int64_t lo, int64_t hi) {
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (CountLeftBelow(runs, mid) >= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

namespace internal {

std::vector<ScoredPair> RadixSortedCopy(std::vector<ScoredPair>& pairs) {
  const size_t n = pairs.size();
  std::vector<ScoredPair> sorted(n);
  if (n == 0) return sorted;
  // Only the key bytes that differ somewhere in the run need a pass.
  uint64_t varying = 0;
  const uint64_t first_key = PairKey(pairs.front());
  for (const ScoredPair& pair : pairs) varying |= PairKey(pair) ^ first_key;
  constexpr int kBytes = 8;
  int digits[kBytes];
  int num_digits = 0;
  for (int d = 0; d < kBytes; ++d) {
    if (((varying >> (8 * d)) & 0xFF) != 0) digits[num_digits++] = d;
  }
  // Histograms on the stack: a worker's heap growth would stay resident.
  std::array<size_t, 256> counts[kBytes];
  for (int k = 0; k < num_digits; ++k) counts[k].fill(0);
  for (const ScoredPair& pair : pairs) {
    const uint64_t key = PairKey(pair);
    for (int k = 0; k < num_digits; ++k) {
      ++counts[k][(key >> (8 * digits[k])) & 0xFF];
    }
  }
  // Stable scatter passes, least significant byte first, alternating
  // between the two buffers.
  ScoredPair* from = pairs.data();
  ScoredPair* to = sorted.data();
  for (int k = 0; k < num_digits; ++k) {
    std::array<size_t, 256>& next = counts[k];
    size_t offset = 0;
    for (size_t& count : next) {
      const size_t bucket = count;
      count = offset;
      offset += bucket;
    }
    const int shift = 8 * digits[k];
    for (size_t i = 0; i < n; ++i) {
      to[next[(PairKey(from[i]) >> shift) & 0xFF]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != sorted.data()) std::copy(from, from + n, sorted.data());
  return sorted;
}

std::vector<std::vector<size_t>> CutRunsByLeftId(const SortedRuns& runs,
                                                 ThreadPool* pool) {
  size_t total = 0;
  int64_t min_left = std::numeric_limits<int64_t>::max();
  int64_t max_left = std::numeric_limits<int64_t>::min();
  for (const std::vector<ScoredPair>& run : runs) {
    if (run.empty()) continue;
    total += run.size();
    min_left = std::min<int64_t>(min_left, run.front().left);
    max_left = std::max<int64_t>(max_left, run.back().left);
  }
  if (total == 0) {
    return std::vector<std::vector<size_t>>(2,
                                            std::vector<size_t>(runs.size()));
  }
  const int workers = pool == nullptr ? 0 : pool->num_threads();
  const size_t max_ranges = workers > 1 ? static_cast<size_t>(workers) * 4 : 1;
  const auto num_ranges = static_cast<int64_t>(
      std::clamp<size_t>(total / kMinPairsPerRange, 1, max_ranges));

  // Range r takes the left ids from its cut to the next one; cuts split
  // the pairs into about equal counts.
  return ParallelMap(pool, num_ranges + 1, [&](int64_t r) {
    const int64_t first_left = LeftIdWithRankBelow(
        runs, total * static_cast<size_t>(r) / static_cast<size_t>(num_ranges),
        min_left, max_left + 1);
    std::vector<size_t> starts(runs.size());
    for (size_t k = 0; k < runs.size(); ++k) {
      starts[k] = FirstAtOrAfter(runs[k], first_left);
    }
    return starts;
  });
}

std::vector<ScoredPair> MergeSortedRuns(SortedRuns runs, ThreadPool* pool) {
  runs.erase(std::remove_if(runs.begin(), runs.end(),
                            [](const std::vector<ScoredPair>& run) {
                              return run.empty();
                            }),
             runs.end());
  if (runs.empty()) return {};
  if (runs.size() == 1) return std::move(runs.front());

  // The output is the ranges in order, so keys stay sorted.
  const std::vector<std::vector<size_t>> cuts = CutRunsByLeftId(runs, pool);
  const size_t num_ranges = cuts.size() - 1;
  std::vector<size_t> offsets(num_ranges + 1);
  for (size_t r = 0; r <= num_ranges; ++r) {
    for (const size_t start : cuts[r]) offsets[r] += start;
  }

  std::vector<ScoredPair> out(offsets.back());
  ParallelMap(pool, static_cast<int64_t>(num_ranges), [&](int64_t r) {
    const auto range = static_cast<size_t>(r);
    ScoredPair* next = out.data() + offsets[range];
    ForEachInPairOrder(runs, cuts[range], cuts[range + 1],
                       [&next](const ScoredPair& pair) {
                         *next++ = pair;
                         return true;
                       });
    return 0;
  });
  return out;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Ingestion
// ---------------------------------------------------------------------------

void ShardedSelfJoiner::Shard::Append(int32_t global_id,
                                      const MeasureDoc& doc) {
  doc_ids.push_back(global_id);
  tokens.insert(tokens.end(), doc.tokens.begin(), doc.tokens.end());
  offsets.push_back(static_cast<int64_t>(tokens.size()));
  sizes.push_back(doc.size);
  payloads.insert(payloads.end(), doc.payload.begin(), doc.payload.end());
  payload_offsets.push_back(static_cast<int64_t>(payloads.size()));
}

ShardedSelfJoiner::ShardedSelfJoiner(int num_shards)
    : shards_(static_cast<size_t>(ResolveShardCount(num_shards))) {}

void ShardedSelfJoiner::Add(const MeasureDoc& doc) {
  const auto shard = static_cast<size_t>(
      num_docs_ % static_cast<int64_t>(shards_.size()));
  shards_[shard].Append(static_cast<int32_t>(num_docs_), doc);
  ++num_docs_;
}

// ---------------------------------------------------------------------------
// Per-shard preparation (phase 1)
// ---------------------------------------------------------------------------

struct ShardedSelfJoiner::Prepared {
  /// Rank-encoded copy of the shard's tokens (same offsets as the raw
  /// shard): ascending rank == rarity order, so prefixes are leading
  /// slices and verification merges plain ranks.
  std::vector<int32_t> rank_tokens;
  /// Prefix length of each document at the join threshold.
  std::vector<int32_t> prefix_len;
  /// Per-doc measure sizes, flat — the hot lookup of the gather's size
  /// window (== signature lengths for the set measures).
  std::vector<size_t> sizes;
  /// Per-doc signature lengths, flat — what the positional filter counts.
  std::vector<size_t> tok_lens;
  /// Flat prefix postings over dense ranks, each token's list filled in
  /// ascending (size, local id) order for the binary-searched window.
  PostingsArena index;
  /// Local ids of this shard's unfilterable documents, sorted ascending by
  /// (size, local id) — the fallback bucket (edit measure only; empty for
  /// measures whose prefix scheme is complete).
  std::vector<int32_t> fallback;
};

template <typename Policy>
ShardedSelfJoiner::Prepared ShardedSelfJoiner::PrepareT(
    const Policy& policy, const Shard& shard,
    const std::vector<int32_t>& ranks, double threshold, bool build_index) {
  obs::Span span("simjoin.prepare_shard", "simjoin");
  Prepared prepared;
  prepared.rank_tokens = shard.tokens;
  const size_t n = shard.size();
  prepared.prefix_len.resize(n);
  prepared.sizes.resize(n);
  prepared.tok_lens.resize(n);
  for (size_t d = 0; d < n; ++d) {
    int32_t* begin = prepared.rank_tokens.data() + shard.offsets[d];
    int32_t* end = prepared.rank_tokens.data() + shard.offsets[d + 1];
    RankEncodeRange(begin, end, ranks);
    const auto tok_len = static_cast<size_t>(end - begin);
    prepared.tok_lens[d] = tok_len;
    prepared.sizes[d] = static_cast<size_t>(shard.sizes[d]);
    prepared.prefix_len[d] = static_cast<int32_t>(
        policy.PrefixLen(threshold, begin, tok_len, prepared.sizes[d]));
  }
  if (build_index) {
    BuildLengthOrderedPostings(
        prepared.index, ranks.size(), prepared.sizes, prepared.prefix_len,
        [&prepared, &shard](int32_t d) {
          return prepared.rank_tokens.data() +
                 shard.offsets[static_cast<size_t>(d)];
        });
    if constexpr (Policy::kUsesFallback) {
      for (size_t d = 0; d < n; ++d) {
        if (policy.Unfilterable(threshold, prepared.tok_lens[d],
                                prepared.sizes[d])) {
          prepared.fallback.push_back(static_cast<int32_t>(d));
        }
      }
      std::sort(prepared.fallback.begin(), prepared.fallback.end(),
                [&prepared](int32_t x, int32_t y) {
                  const size_t sx = prepared.sizes[static_cast<size_t>(x)];
                  const size_t sy = prepared.sizes[static_cast<size_t>(y)];
                  if (sx != sy) return sx < sy;
                  return x < y;
                });
    }
  }
  return prepared;
}

// ---------------------------------------------------------------------------
// Shard-vs-shard probe (phase 2)
// ---------------------------------------------------------------------------

template <typename Policy>
void ShardedSelfJoiner::ProbeTaskT(const Policy& policy,
                                   const Shard& target_raw,
                                   const Prepared& target,
                                   const Shard& probe_raw,
                                   const Prepared& probe, bool same_shard,
                                   bool bipartite_emit, double threshold,
                                   std::vector<ScoredPair>& out) {
  std::vector<GatherSlot> slots(target_raw.size());
  std::vector<JoinCandidate> candidates;  // scratch, reused across probes
  const size_t out_before = out.size();
  size_t num_visits = 0;     // postings in the probes' size windows
  int64_t num_gathered = 0;  // candidates entering verification, this task
  const auto size_of = [&target](int32_t doc) {
    return target.sizes[static_cast<size_t>(doc)];
  };
  const auto tok_len_of = [&target](int32_t doc) {
    return target.tok_lens[static_cast<size_t>(doc)];
  };
  for (size_t j = 0; j < probe_raw.size(); ++j) {
    const int64_t begin_j = probe_raw.offsets[j];
    const size_t tok_len_j = probe.tok_lens[j];
    if (tok_len_j == 0) continue;
    const size_t size_j = probe.sizes[j];
    const auto prefix_j = static_cast<size_t>(probe.prefix_len[j]);
    const size_t min_size = policy.MinSize(threshold, size_j);
    const size_t max_size = policy.MaxSize(threshold, size_j);
    const int32_t* probe_ranks =
        probe.rank_tokens.data() + static_cast<size_t>(begin_j);

    candidates.clear();
    // Same-shard tasks emit each unordered pair once: only the earlier
    // (smaller-global-id, i.e. smaller local position) partner.
    const auto skip = [same_shard, j](int32_t i) {
      return same_shard && i >= static_cast<int32_t>(j);
    };
    const auto required_of = [&policy, threshold, tok_len_j,
                              size_j](size_t cand_size) {
      return policy.Required(threshold, tok_len_j, size_j, cand_size);
    };
    num_visits += GatherPositionalCandidates(
        target.index, probe_ranks, prefix_j, tok_len_j, min_size, max_size,
        static_cast<int32_t>(j), slots, size_of, tok_len_of, required_of, skip,
        candidates);
    if constexpr (Policy::kUsesFallback) {
      // Unfilterable probes also sweep the target shard's fallback bucket;
      // shared slots keep postings-found partners from re-emitting.
      if (policy.Unfilterable(threshold, tok_len_j, size_j)) {
        GatherFallbackCandidates(target.fallback, min_size, max_size,
                                 static_cast<int32_t>(j), slots, size_of,
                                 skip, candidates);
      }
    }
    num_gathered += static_cast<int64_t>(candidates.size());
    const internal::MeasureDocRef probe_ref{probe_ranks, tok_len_j, size_j,
                                            probe_raw.payload(j)};
    for (const JoinCandidate& cand : candidates) {
      const auto i = static_cast<size_t>(cand.doc);
      const int32_t* target_ranks =
          target.rank_tokens.data() + target_raw.offsets[i];
      const internal::MeasureDocRef target_ref{target_ranks, target.tok_lens[i],
                                               target.sizes[i],
                                               target_raw.payload(i)};
      const double score = policy.Verify(
          target_ref, probe_ref, static_cast<size_t>(cand.index_pos),
          static_cast<size_t>(cand.probe_pos),
          static_cast<size_t>(cand.overlap), threshold);
      if (score + 1e-12 >= threshold) {
        const int32_t gi = target_raw.doc_ids[i];
        const int32_t gj = probe_raw.doc_ids[j];
        if (bipartite_emit) {
          out.push_back({gi, gj, score});
        } else {
          out.push_back({std::min(gi, gj), std::max(gi, gj), score});
        }
      }
    }
  }
  JoinMetrics& metrics = JoinMetrics::Get();
  metrics.posting_visits_total->Inc(static_cast<int64_t>(num_visits));
  metrics.prefilter_candidates_total->Inc(num_gathered);
  metrics.pairs_emitted_total->Inc(
      static_cast<int64_t>(out.size() - out_before));
}

// ---------------------------------------------------------------------------
// Incremental probe-task cursor
// ---------------------------------------------------------------------------

struct ShardedJoinCursor::Impl {
  double threshold = 0.0;
  /// The measure this cursor's tasks run under; the policy dispatch
  /// happens per task, so one cursor type serves every measure.
  const SimilarityMeasure* measure = nullptr;
  /// Per-rank idf weights, populated for the cosine measure only; the
  /// cosine policy holds a pointer into this for the cursor's lifetime.
  std::vector<double> cosine_weights;
  // The left joiner's shards carry the prefix index; the right joiner's
  // documents probe it. A self-join has one joiner on both sides.
  const ShardedSelfJoiner* left = nullptr;
  const ShardedSelfJoiner* right = nullptr;
  std::vector<ShardedSelfJoiner::Prepared> left_prepared;
  std::vector<ShardedSelfJoiner::Prepared> right_prepared;  // bipartite only
  // Fixed task order, identical to the one-shot drivers'.
  std::vector<std::pair<int32_t, int32_t>> tasks;
  int64_t next_task = 0;

  bool bipartite() const { return left != right; }
};

ShardedJoinCursor::ShardedJoinCursor(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

ShardedJoinCursor::~ShardedJoinCursor() = default;
ShardedJoinCursor::ShardedJoinCursor(ShardedJoinCursor&&) noexcept = default;
ShardedJoinCursor& ShardedJoinCursor::operator=(ShardedJoinCursor&&) noexcept =
    default;

int64_t ShardedJoinCursor::num_tasks() const {
  return static_cast<int64_t>(impl_->tasks.size());
}

int64_t ShardedJoinCursor::tasks_done() const { return impl_->next_task; }

Result<internal::SortedRuns> ShardedJoinCursor::NextBatchRuns(
    int64_t max_tasks, ThreadPool* pool) {
  if (max_tasks < 1) {
    return Status::InvalidArgument("max_tasks must be >= 1");
  }
  Impl& impl = *impl_;
  const int64_t begin = impl.next_task;
  const int64_t end = std::min(num_tasks(), begin + max_tasks);
  impl.next_task = end;
  // The tasks of one pool chunk append to one output, sorted once, so a
  // batch yields a few long runs rather than one short run per task.
  const int64_t batch_tasks = end - begin;
  const int workers = pool == nullptr ? 0 : pool->num_threads();
  const int64_t num_runs =
      std::min<int64_t>(batch_tasks, workers > 1 ? workers * 4 : 1);
  const bool bipartite = impl.bipartite();
  const auto& right_prepared =
      bipartite ? impl.right_prepared : impl.left_prepared;
  return ParallelMap(pool, num_runs, [&](int64_t r) {
    std::vector<ScoredPair> out;
    const int64_t run_end = begin + batch_tasks * (r + 1) / num_runs;
    for (int64_t t = begin + batch_tasks * r / num_runs; t < run_end; ++t) {
      const auto [a, b] = impl.tasks[static_cast<size_t>(t)];
      obs::Span span("simjoin.probe_task", "simjoin");
      JoinMetrics::Get().probe_tasks_total->Inc();
      internal::DispatchMeasure(
          *impl.measure, &impl.cosine_weights, [&](auto policy) {
            ShardedSelfJoiner::ProbeTaskT(
                policy, impl.left->shards_[static_cast<size_t>(a)],
                impl.left_prepared[static_cast<size_t>(a)],
                impl.right->shards_[static_cast<size_t>(b)],
                right_prepared[static_cast<size_t>(b)],
                /*same_shard=*/!bipartite && a == b,
                /*bipartite_emit=*/bipartite, impl.threshold, out);
          });
    }
    // Sorted into an exact-size copy: the run outlives the task on the
    // caller's side, and growth slack left in a worker's malloc arena stays
    // resident.
    return internal::RadixSortedCopy(out);
  });
}

Result<std::vector<ScoredPair>> ShardedJoinCursor::NextBatch(
    int64_t max_tasks, ThreadPool* pool) {
  CJ_ASSIGN_OR_RETURN(internal::SortedRuns runs,
                      NextBatchRuns(max_tasks, pool));
  return internal::MergeSortedRuns(std::move(runs), pool);
}

// ---------------------------------------------------------------------------
// Self and bipartite joins
// ---------------------------------------------------------------------------

Result<ShardedJoinCursor> ShardedSelfJoiner::MakeCursor(
    const TokenDictionary& dictionary, const SimilarityMeasure& measure,
    double threshold, ThreadPool* pool,
    const ShardedSelfJoiner* right) const {
  if (right == this) {
    return Status::InvalidArgument(
        "a bipartite join needs two joiners; join one joiner with itself "
        "as a self-join (right = nullptr)");
  }
  CJ_RETURN_IF_ERROR(ValidateJoinThreshold(threshold));
  const bool bipartite = right != nullptr;

  // The rarity permutation is dictionary-wide: compute it once, share it
  // with every per-shard preparation task.
  const std::vector<int32_t> ranks = dictionary.RarityRanks();

  auto impl = std::make_unique<ShardedJoinCursor::Impl>();
  impl->threshold = threshold;
  impl->measure = &measure;
  // Cosine prefixes are weight-driven, so the weights must exist before
  // phase 1 runs.
  if (measure.kind() == MeasureKind::kCosineTfIdf) {
    impl->cosine_weights = CosineRankWeights(dictionary, ranks);
  }
  impl->left = this;
  impl->right = bipartite ? right : this;
  // Phase 1: every shard's rank order + prefix postings, in parallel. Only
  // the left shards need an index; a bipartite right side needs prefixes.
  const auto prepare = [&](const ShardedSelfJoiner& joiner, bool index) {
    return ParallelMap(
        pool, static_cast<int64_t>(joiner.shards_.size()), [&](int64_t s) {
          return internal::DispatchMeasure(
              measure, &impl->cosine_weights, [&](auto policy) {
                return PrepareT(policy, joiner.shards_[static_cast<size_t>(s)],
                                ranks, threshold, index);
              });
        });
  };
  impl->left_prepared = prepare(*this, /*index=*/true);
  if (bipartite) impl->right_prepared = prepare(*right, /*index=*/false);
  // Phase 2's plan: task (a, b) probes right shard b's documents against
  // left shard a's prefix index. A self-join takes each unordered shard
  // pairing once (a <= b); a bipartite join takes every pairing.
  const auto left_shards = static_cast<int32_t>(shards_.size());
  const auto right_shards = static_cast<int32_t>(impl->right->shards_.size());
  for (int32_t a = 0; a < left_shards; ++a) {
    for (int32_t b = bipartite ? 0 : a; b < right_shards; ++b) {
      impl->tasks.push_back({a, b});
    }
  }
  return ShardedJoinCursor(std::move(impl));
}

Result<std::vector<ScoredPair>> ShardedSelfJoiner::Finish(
    const TokenDictionary& dictionary, const SimilarityMeasure& measure,
    double threshold, ThreadPool* pool,
    const ShardedSelfJoiner* right) const {
  CJ_ASSIGN_OR_RETURN(ShardedJoinCursor cursor,
                      MakeCursor(dictionary, measure, threshold, pool, right));
  // Draining every task in one batch is exactly the one-shot join.
  return cursor.NextBatch(std::max<int64_t>(cursor.num_tasks(), 1), pool);
}

// ---------------------------------------------------------------------------
// Convenience wrappers
// ---------------------------------------------------------------------------

Result<std::vector<ScoredPair>> ShardedMeasureSelfJoin(
    const std::vector<MeasureDoc>& docs, const TokenDictionary& dictionary,
    const SimilarityMeasure& measure, double threshold,
    const ShardedJoinOptions& options) {
  ShardedSelfJoiner joiner(options.num_shards);
  for (const auto& doc : docs) joiner.Add(doc);
  ThreadPool pool(options.num_threads);
  return joiner.Finish(dictionary, measure, threshold,
                       pool.num_threads() > 0 ? &pool : nullptr);
}

Result<std::vector<ScoredPair>> ShardedMeasureBipartiteJoin(
    const std::vector<MeasureDoc>& left, const std::vector<MeasureDoc>& right,
    const TokenDictionary& dictionary, const SimilarityMeasure& measure,
    double threshold, const ShardedJoinOptions& options) {
  ShardedSelfJoiner left_joiner(options.num_shards);
  ShardedSelfJoiner right_joiner(options.num_shards);
  for (const auto& doc : left) left_joiner.Add(doc);
  for (const auto& doc : right) right_joiner.Add(doc);
  ThreadPool pool(options.num_threads);
  return left_joiner.Finish(dictionary, measure, threshold,
                            pool.num_threads() > 0 ? &pool : nullptr,
                            &right_joiner);
}

}  // namespace crowdjoin
