#ifndef CROWDJOIN_SIMJOIN_POSTINGS_INDEX_H_
#define CROWDJOIN_SIMJOIN_POSTINGS_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "text/set_similarity.h"

namespace crowdjoin {

/// One prefix-index entry: the document holding the token and the token's
/// position within that document's rank-ordered prefix — the position is
/// what powers the PPJoin positional filter.
struct Posting {
  int32_t doc = 0;
  int32_t pos = 0;
};

/// \brief Flat, arena-backed postings table over dense token ranks.
///
/// Token ids (and the rarity ranks derived from them) are dense, so the
/// prefix index needs no hashing: `Build` turns per-token posting counts
/// into a CSR offset table over one flat `Posting` array, and `Append`
/// fills each token's pre-sized slot through a write cursor. Lookups read
/// the *filled* range `[offsets[t], cursors[t])`.
///
/// The fill order is the caller's contract with itself: the sharded join
/// fills every shard index through `BuildLengthOrderedPostings`, in
/// ascending document length, so `GatherPositionalCandidates` can
/// binary-search the length window instead of length-testing every
/// posting.
class PostingsArena {
 public:
  /// Sizes the arena: `counts[t]` postings will be appended for token t.
  /// Resets all cursors to empty.
  void Build(const std::vector<int32_t>& counts) {
    offsets_.assign(counts.size() + 1, 0);
    for (size_t t = 0; t < counts.size(); ++t) {
      offsets_[t + 1] = offsets_[t] + counts[t];
    }
    cursors_.assign(offsets_.begin(), offsets_.end() - 1);
    postings_.resize(static_cast<size_t>(offsets_.back()));
  }

  /// Appends one posting into `token`'s slot. The caller must not exceed
  /// the count it declared in `Build`.
  void Append(int32_t token, int32_t doc, int32_t pos) {
    postings_[static_cast<size_t>(cursors_[static_cast<size_t>(token)]++)] =
        {doc, pos};
  }

  /// Filled postings of `token`: `[begin, end)`.
  const Posting* begin(int32_t token) const {
    return postings_.data() + offsets_[static_cast<size_t>(token)];
  }
  const Posting* end(int32_t token) const {
    return postings_.data() + cursors_[static_cast<size_t>(token)];
  }

  size_t num_tokens() const { return cursors_.size(); }
  size_t size() const { return postings_.size(); }

 private:
  std::vector<int32_t> offsets_;  ///< token -> slot begin; size tokens + 1
  std::vector<int32_t> cursors_;  ///< token -> filled end within its slot
  std::vector<Posting> postings_;
};

/// Rank-encodes a document: maps token ids through the rarity permutation
/// and sorts ascending. The result is the document in `SortByRarity`
/// order, represented so that plain int32 comparisons *are* the rarity
/// order — prefixes are leading slices and verification merges ranks
/// directly.
inline void RankEncode(const std::vector<int32_t>& doc,
                       const std::vector<int32_t>& ranks,
                       std::vector<int32_t>& out) {
  out.resize(doc.size());
  for (size_t k = 0; k < doc.size(); ++k) {
    out[k] = ranks[static_cast<size_t>(doc[k])];
  }
  std::sort(out.begin(), out.end());
}

/// In-place range variant of `RankEncode` for documents living in flat
/// arena buffers (the sharded join's shards).
inline void RankEncodeRange(int32_t* first, int32_t* last,
                            const std::vector<int32_t>& ranks) {
  for (int32_t* p = first; p != last; ++p) {
    *p = ranks[static_cast<size_t>(*p)];
  }
  std::sort(first, last);
}

/// \brief Builds a fully populated arena over `num_tokens` dense token
/// ranks from `n` documents' prefixes, filling every token's postings in
/// ascending (length, doc id) order — the exact contract
/// `GatherPositionalCandidates`' binary-searched length window depends
/// on, encoded here once for every join path that indexes up front.
///
/// `prefix_of(d)` returns the document's rank-encoded token pointer;
/// `lens[d]` its length; `prefix_lens[d]` how many leading tokens are
/// indexed.
template <typename PrefixOf>
inline void BuildLengthOrderedPostings(PostingsArena& index,
                                       size_t num_tokens,
                                       const std::vector<size_t>& lens,
                                       const std::vector<int32_t>& prefix_lens,
                                       PrefixOf prefix_of) {
  const size_t n = lens.size();
  std::vector<int32_t> counts(num_tokens, 0);
  for (size_t d = 0; d < n; ++d) {
    const int32_t* prefix = prefix_of(static_cast<int32_t>(d));
    const auto prefix_len = static_cast<size_t>(prefix_lens[d]);
    for (size_t p = 0; p < prefix_len; ++p) ++counts[prefix[p]];
  }
  std::vector<int32_t> by_size(n);
  for (size_t d = 0; d < n; ++d) by_size[d] = static_cast<int32_t>(d);
  std::sort(by_size.begin(), by_size.end(),
            [&lens](int32_t x, int32_t y) {
              const size_t lx = lens[static_cast<size_t>(x)];
              const size_t ly = lens[static_cast<size_t>(y)];
              if (lx != ly) return lx < ly;
              return x < y;
            });
  index.Build(counts);
  for (const int32_t d : by_size) {
    const int32_t* prefix = prefix_of(d);
    const auto prefix_len =
        static_cast<size_t>(prefix_lens[static_cast<size_t>(d)]);
    for (size_t p = 0; p < prefix_len; ++p) {
      index.Append(prefix[p], d, static_cast<int32_t>(p));
    }
  }
}

/// A candidate that survived the length window and the positional filter,
/// plus the seed for resumed verification. `overlap` counts the prefix
/// tokens the two documents share, and the last of them sits at
/// `probe_pos` in the probe document and `index_pos` in the candidate.
/// Every common token ranked at or below that one lies inside both
/// prefixes (prefixes are leading slices of the ascending rank order), so
/// `overlap` is exactly the merge's count up to it: verification resumes
/// just past it with `overlap` banked instead of re-merging the prefixes.
struct JoinCandidate {
  int32_t doc = 0;
  int32_t probe_pos = 0;
  int32_t index_pos = 0;
  int32_t overlap = 0;
};

/// One indexed document's gather state within a probe task: `mark` is the
/// last probe document that visited it (-1: none yet), `candidate` its
/// index in that probe's candidate list, or -1 when a filter dropped it.
/// Only a first visit writes it.
struct GatherSlot {
  int32_t mark = -1;
  int32_t candidate = -1;
};

/// \brief The candidate-gather loop shared by every join path: probe one
/// document's prefix against a postings arena, window by measure size,
/// prune with the PPJoin positional filter on the first visit, and
/// accumulate the shared prefix tokens of the survivors. Returns the
/// number of postings visited (the windows' total length).
///
/// Measure-generic via three accessors. `size_of(doc)` is the candidate's
/// measure size — the dimension the size window cuts on (token count for
/// the set measures, normalized string length for edit distance).
/// `tok_len_of(doc)` is its signature length, which the positional bound
/// counts in; for the set measures the two coincide. `required_of(size)`
/// maps a candidate size to the measure's minimum signature overlap for
/// this probe (the caller closes over the threshold and the probe's own
/// dimensions). `skip(doc)` is an extra reject (the sharded self-join's
/// same-shard ordering rule) that still claims the slot. `probe_mark`
/// must be unique per probe document against a given `slots` array (one
/// slot per indexed document, default-initialized).
///
/// Size window: postings lists must be sorted ascending by
/// `size_of(doc)`; the `[min_size, max_size]` window is then located by
/// binary search, with O(1) endpoint pre-checks so fully qualifying lists
/// (the common case) skip the searches.
///
/// First visit: a candidate is first met at the *first* shared prefix
/// token — no smaller-rank token is common, because prefixes are leading
/// slices of the ascending rank order, so a smaller common token would sit
/// inside both prefixes and would have matched earlier. The total
/// signature overlap is therefore at most this token plus everything after
/// it on both sides; candidates whose bound cannot reach `required_of` are
/// dropped before verification ever touches them — exactly the pairs
/// bounded verification would have rejected, so join output is unchanged.
///
/// Revisit: the document's size is in this probe's window for every
/// token, so each later shared prefix token visits it again. A surviving
/// candidate then counts one more shared token and moves its seed
/// positions to this token (`JoinCandidate`); a dropped one stays dropped.
template <typename SizeOf, typename TokLenOf, typename RequiredOf,
          typename Skip>
inline size_t GatherPositionalCandidates(
    const PostingsArena& index, const int32_t* probe_prefix,
    size_t prefix_len, size_t probe_tok_len, size_t min_size,
    size_t max_size, int32_t probe_mark, std::vector<GatherSlot>& slots,
    SizeOf size_of, TokLenOf tok_len_of, RequiredOf required_of, Skip skip,
    std::vector<JoinCandidate>& out) {
  // Within one probe the required overlap depends only on the candidate
  // size, and postings arrive in ascending-size runs — memoize the last
  // (size -> required) pair instead of paying the fp divide + ceil per
  // posting. Same function, same arguments: bit-identical results.
  size_t memo_size = std::numeric_limits<size_t>::max();
  size_t memo_required = 0;
  size_t visits = 0;
  for (size_t p = 0; p < prefix_len; ++p) {
    const int32_t token = probe_prefix[p];
    const Posting* begin = index.begin(token);
    const Posting* end = index.end(token);
    if (begin == end) continue;
    if (size_of(begin->doc) < min_size) {
      begin = std::partition_point(begin, end, [&](const Posting& e) {
        return size_of(e.doc) < min_size;
      });
    }
    if (begin != end && size_of((end - 1)->doc) > max_size) {
      end = std::partition_point(begin, end, [&](const Posting& e) {
        return size_of(e.doc) <= max_size;
      });
    }
    visits += static_cast<size_t>(end - begin);
    for (const Posting* it = begin; it != end; ++it) {
      const int32_t doc = it->doc;
      GatherSlot& slot = slots[static_cast<size_t>(doc)];
      if (slot.mark == probe_mark) {
        if (slot.candidate >= 0) {
          JoinCandidate& cand = out[static_cast<size_t>(slot.candidate)];
          ++cand.overlap;
          cand.probe_pos = static_cast<int32_t>(p);
          cand.index_pos = it->pos;
        }
        continue;
      }
      slot.mark = probe_mark;
      slot.candidate = -1;
      if (skip(doc)) continue;
      const size_t size = size_of(doc);
      if (size != memo_size) {
        memo_size = size;
        memo_required = required_of(size);
      }
      const size_t upper_bound =
          1 + std::min(probe_tok_len - p - 1,
                       tok_len_of(doc) - static_cast<size_t>(it->pos) - 1);
      if (upper_bound < memo_required) continue;
      slot.candidate = static_cast<int32_t>(out.size());
      out.push_back({doc, static_cast<int32_t>(p), it->pos, 1});
    }
  }
  return visits;
}

/// \brief Size-windowed sweep of a measure's fallback bucket — the indexed
/// documents whose signatures are too short for the prefix scheme to be
/// complete on (the edit measure's `Unfilterable` documents, whose
/// qualifying partners may share *zero* signature tokens).
///
/// `docs` must be sorted ascending by `(size_of(doc), doc)` so the
/// `[min_size, max_size]` window binary-searches the same way the postings
/// window does. Only unfilterable *probes* scan the bucket — a filterable
/// probe's qualifying pairs are already complete through the postings (an
/// unfilterable indexed document's prefix is its whole signature).
/// Candidates carry no seed (`{doc, 0, 0, 0}`); fallback-using measures
/// verify from scratch. Shares `slots`/`probe_mark` with
/// `GatherPositionalCandidates`, so a document already gathered through a
/// shared token is not re-emitted — call this *after* the postings gather
/// for the same probe.
template <typename SizeOf, typename Skip>
inline void GatherFallbackCandidates(
    const std::vector<int32_t>& docs, size_t min_size, size_t max_size,
    int32_t probe_mark, std::vector<GatherSlot>& slots, SizeOf size_of,
    Skip skip, std::vector<JoinCandidate>& out) {
  const int32_t* begin = docs.data();
  const int32_t* end = begin + docs.size();
  if (begin == end) return;
  if (size_of(*begin) < min_size) {
    begin = std::partition_point(
        begin, end, [&](int32_t d) { return size_of(d) < min_size; });
  }
  if (begin != end && size_of(*(end - 1)) > max_size) {
    end = std::partition_point(
        begin, end, [&](int32_t d) { return size_of(d) <= max_size; });
  }
  for (const int32_t* it = begin; it != end; ++it) {
    const int32_t doc = *it;
    GatherSlot& slot = slots[static_cast<size_t>(doc)];
    if (slot.mark == probe_mark) continue;
    slot.mark = probe_mark;
    slot.candidate = -1;
    if (skip(doc)) continue;
    out.push_back({doc, 0, 0, 0});
  }
}

}  // namespace crowdjoin

#endif  // CROWDJOIN_SIMJOIN_POSTINGS_INDEX_H_
