#include "text/record_similarity.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string>

#include "common/macros.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "text/edit_distance.h"
#include "text/normalize.h"
#include "text/set_similarity.h"
#include "text/tokenize.h"

namespace crowdjoin {

namespace {

Status ValidateSpec(const FieldSimilaritySpec& spec) {
  if (!std::isfinite(spec.weight) || spec.weight < 0.0) {
    return Status::InvalidArgument(
        StrFormat("field %d: weight %g is negative or non-finite",
                  spec.field_index, spec.weight));
  }
  if (spec.measure == FieldMeasure::kQGramJaccard && spec.q < 1) {
    return Status::InvalidArgument(
        StrFormat("field %d: q-gram size %d < 1", spec.field_index, spec.q));
  }
  return Status::OK();
}

// Appends `tokens` to `out` as a sorted, deduplicated id set.
void AppendTokenSet(const std::vector<std::string_view>& tokens,
                    TokenIdMap& ids, std::vector<int32_t>& out) {
  const auto begin = static_cast<std::ptrdiff_t>(out.size());
  for (const std::string_view token : tokens) {
    out.push_back(InternToken(ids, token));
  }
  std::sort(out.begin() + begin, out.end());
  out.erase(std::unique(out.begin() + begin, out.end()), out.end());
}

bool IsSetMeasure(FieldMeasure measure) {
  return measure == FieldMeasure::kJaccardWords ||
         measure == FieldMeasure::kQGramJaccard;
}

bool InternsTokens(FieldMeasure measure) {
  return IsSetMeasure(measure) || measure == FieldMeasure::kTfIdfCosine;
}

// One token-interning spec's output over one record range before the
// vocabularies merge: ids numbered by first appearance within the range.
struct RangeTokens {
  TokenIdMap ids;
  std::vector<int32_t> set_ids;  // set specs: each record's set, sorted
  std::vector<int32_t> remap;    // range id -> merged id; empty = identity
};

// Renumbers `vec`'s ids through `remap`, re-sorting ids and weights by the
// new ids and keeping `sum_order` on the same terms, so its cosines sum in
// the same order as before.
void RemapTfIdf(const std::vector<int32_t>& remap, TfIdfVector& vec) {
  const size_t n = vec.ids.size();
  for (int32_t& id : vec.ids) id = remap[static_cast<size_t>(id)];
  std::vector<uint32_t> by_id(n);
  std::iota(by_id.begin(), by_id.end(), 0u);
  std::sort(by_id.begin(), by_id.end(), [&vec](uint32_t x, uint32_t y) {
    return vec.ids[x] < vec.ids[y];
  });
  TfIdfVector out;
  out.norm_sq = vec.norm_sq;
  out.ids.resize(n);
  out.weights.resize(n);
  out.sum_order.resize(n);
  std::vector<uint32_t> rank_of(n);
  for (uint32_t rank = 0; rank < n; ++rank) {
    out.ids[rank] = vec.ids[by_id[rank]];
    out.weights[rank] = vec.weights[by_id[rank]];
    rank_of[by_id[rank]] = rank;
  }
  for (size_t k = 0; k < n; ++k) out.sum_order[k] = rank_of[vec.sum_order[k]];
  vec = std::move(out);
}

}  // namespace

RecordScorer::RecordScorer(std::vector<FieldSimilaritySpec> specs)
    : specs_(std::move(specs)), tfidf_models_(specs_.size()) {}

void RecordScorer::FitTfIdf(const RecordSet& records) {
  for (size_t s = 0; s < specs_.size(); ++s) {
    if (specs_[s].measure != FieldMeasure::kTfIdfCosine) continue;
    std::vector<std::vector<std::string>> docs;
    docs.reserve(records.size());
    for (const Record& r : records) {
      const size_t f = static_cast<size_t>(specs_[s].field_index);
      docs.push_back(f < r.fields.size() ? WordTokens(r.fields[f])
                                         : std::vector<std::string>{});
    }
    tfidf_models_[s] = TfIdfModel::Fit(docs);
  }
}

double ParseNumericField(const std::string& text) {
  const std::string trimmed(Trim(text));
  if (trimmed.empty()) return std::nan("");
  char* end = nullptr;
  const double value = std::strtod(trimmed.c_str(), &end);
  if (end == trimmed.c_str()) return std::nan("");
  return value;
}

double NumericProximity(double x, double y) {
  if (std::isnan(x) || std::isnan(y)) return 0.0;
  // Equal values score 1 without the division, which would be 0/0 for two
  // zeros and inf/inf for two equal infinities.
  if (x == y) return 1.0;
  const double denom = std::max(std::abs(x), std::abs(y));
  return std::max(0.0, 1.0 - std::abs(x - y) / denom);
}

Result<PreparedRecords> RecordScorer::Prepare(const RecordSet& records,
                                              ThreadPool* pool) const {
  for (const FieldSimilaritySpec& spec : specs_) {
    CJ_RETURN_IF_ERROR(ValidateSpec(spec));
  }
  using FieldState = PreparedRecords::FieldState;
  PreparedRecords prepared;
  prepared.specs_ = specs_;
  const size_t n = records.size();
  prepared.num_records_ = n;
  prepared.columns_.resize(specs_.size());
  const size_t num_specs = specs_.size();
  for (size_t s = 0; s < num_specs; ++s) {
    PreparedRecords::Column& column = prepared.columns_[s];
    column.state.assign(n, FieldState::kMissing);
    switch (specs_[s].measure) {
      case FieldMeasure::kJaccardWords:
      case FieldMeasure::kQGramJaccard:
        column.set_offsets.assign(n + 1, 0);
        break;
      case FieldMeasure::kLevenshtein:
      case FieldMeasure::kJaroWinkler:
        column.text.resize(n);
        break;
      case FieldMeasure::kTfIdfCosine:
        column.tfidf.resize(n);
        column.tfidf_fit = tfidf_models_[s].num_documents() > 0;
        break;
      case FieldMeasure::kNumeric:
        column.number.resize(n);
        break;
    }
  }
  const int workers = pool == nullptr ? 0 : pool->num_threads();
  const size_t num_ranges = std::clamp<size_t>(
      static_cast<size_t>(workers), 1, std::max<size_t>(n, 1));
  const auto range_begin = [n, num_ranges](size_t r) {
    return n * r / num_ranges;
  };
  // ranges[s][r]: token-interning spec s over record range r.
  std::vector<std::vector<RangeTokens>> ranges(num_specs);
  for (size_t s = 0; s < num_specs; ++s) {
    if (InternsTokens(specs_[s].measure)) ranges[s].resize(num_ranges);
  }
  const auto num_tasks = static_cast<int64_t>(num_specs * num_ranges);

  // 1. Features, one task per spec x record range, range-major: a pool
  // chunk of consecutive tasks then mixes cheap and costly specs instead
  // of taking several ranges of one. Record i's set size parks in
  // set_offsets[i + 1] until the offsets are summed up.
  ParallelMap(pool, num_tasks, [&](int64_t task) {
    const auto s = static_cast<size_t>(task) % num_specs;
    const auto r = static_cast<size_t>(task) / num_specs;
    const FieldSimilaritySpec& spec = specs_[s];
    const auto f = static_cast<size_t>(spec.field_index);
    PreparedRecords::Column& column = prepared.columns_[s];
    RangeTokens* tokens = ranges[s].empty() ? nullptr : &ranges[s][r];
    // Scratch reused across the range's records: one field's normalized
    // text, its padded form for q-grams, and its tokens as views.
    std::string normalized;
    std::string padded;
    std::vector<std::string_view> views;
    const auto normalize = [&normalized](const std::string& field) {
      normalized.resize(field.size());
      normalized.resize(NormalizeTextInto(field, normalized.data()));
      return std::string_view(normalized);
    };
    for (size_t i = range_begin(r); i < range_begin(r + 1); ++i) {
      const Record& record = records[i];
      if (f >= record.fields.size()) continue;
      const std::string& field = record.fields[f];
      column.state[i] =
          field.empty() ? FieldState::kRawEmpty : FieldState::kPresent;
      const size_t set_begin = tokens == nullptr ? 0 : tokens->set_ids.size();
      switch (spec.measure) {
        case FieldMeasure::kJaccardWords:
          views.clear();
          AppendNormalizedWords(normalize(field), views);
          AppendTokenSet(views, tokens->ids, tokens->set_ids);
          break;
        case FieldMeasure::kQGramJaccard:
          views.clear();
          AppendNormalizedQGrams(normalize(field), spec.q, padded, views);
          AppendTokenSet(views, tokens->ids, tokens->set_ids);
          break;
        case FieldMeasure::kLevenshtein:
        case FieldMeasure::kJaroWinkler:
          column.text[i] = NormalizeText(field);
          break;
        case FieldMeasure::kTfIdfCosine:
          column.tfidf[i] =
              tfidf_models_[s].Weigh(WordTokens(field), tokens->ids);
          break;
        case FieldMeasure::kNumeric:
          column.number[i] = ParseNumericField(field);
          break;
      }
      if (IsSetMeasure(spec.measure)) {
        column.set_offsets[i + 1] =
            static_cast<uint32_t>(tokens->set_ids.size() - set_begin);
      }
    }
    return 0;
  });

  // 2. Per spec, merge the range vocabularies in range order: a token
  // keeps the id of its first appearance over all records. The first
  // range's ids already are those ids. The range vocabularies go as soon
  // as their ids are mapped.
  ParallelMap(pool, static_cast<int64_t>(num_specs), [&](int64_t task) {
    const auto s = static_cast<size_t>(task);
    if (ranges[s].empty()) return 0;
    TokenIdMap merged = std::move(ranges[s][0].ids);
    for (size_t r = 1; r < num_ranges; ++r) {
      RangeTokens& range = ranges[s][r];
      std::vector<const std::string*> by_id(range.ids.size());
      for (const auto& [token, id] : range.ids) {
        by_id[static_cast<size_t>(id)] = &token;
      }
      range.remap.resize(by_id.size());
      for (size_t id = 0; id < by_id.size(); ++id) {
        const auto next_id = static_cast<int32_t>(merged.size());
        range.remap[id] = merged.try_emplace(*by_id[id], next_id).first->second;
      }
      range.ids = TokenIdMap();
    }
    prepared.columns_[s].num_tokens = merged.size();
    return 0;
  });
  // The sets' storage is sized here, on the caller.
  for (size_t s = 0; s < num_specs; ++s) {
    if (!IsSetMeasure(specs_[s].measure)) continue;
    PreparedRecords::Column& column = prepared.columns_[s];
    for (size_t i = 0; i < n; ++i) {
      column.set_offsets[i + 1] += column.set_offsets[i];
    }
    column.set_ids.resize(column.set_offsets[n]);
  }

  // 3. Each range writes its sets, renumbered and re-sorted, into its slice
  // of the column, and renumbers its tf-idf vectors.
  ParallelMap(pool, num_tasks, [&](int64_t task) {
    const auto s = static_cast<size_t>(task) % num_specs;
    const auto r = static_cast<size_t>(task) / num_specs;
    if (ranges[s].empty()) return 0;
    const RangeTokens& range = ranges[s][r];
    PreparedRecords::Column& column = prepared.columns_[s];
    const size_t begin = range_begin(r);
    const size_t end = range_begin(r + 1);
    if (!IsSetMeasure(specs_[s].measure)) {
      if (range.remap.empty()) return 0;
      for (size_t i = begin; i < end; ++i) {
        RemapTfIdf(range.remap, column.tfidf[i]);
      }
      return 0;
    }
    int32_t* out = column.set_ids.data() + column.set_offsets[begin];
    std::copy(range.set_ids.begin(), range.set_ids.end(), out);
    if (range.remap.empty()) return 0;
    for (size_t i = begin; i < end; ++i) {
      int32_t* first = column.set_ids.data() + column.set_offsets[i];
      int32_t* last = column.set_ids.data() + column.set_offsets[i + 1];
      for (int32_t* id = first; id != last; ++id) {
        *id = range.remap[static_cast<size_t>(*id)];
      }
      std::sort(first, last);
    }
    return 0;
  });
  return prepared;
}

Result<double> RecordScorer::Score(const Record& a, const Record& b) const {
  CJ_ASSIGN_OR_RETURN(const PreparedRecords prepared, Prepare({a, b}));
  return prepared.Score(0, 1);
}

template <typename Overlap, typename Edit>
Result<double> PreparedRecords::ScoreWith(size_t i, size_t j,
                                          Overlap&& overlap,
                                          Edit&& edit) const {
  if (specs_.empty()) {
    return Status::FailedPrecondition("RecordScorer has no field specs");
  }
  if (i >= num_records_ || j >= num_records_) {
    return Status::OutOfRange(StrFormat("record %zu or %zu not prepared (%zu)",
                                        i, j, num_records_));
  }
  double total_weight = 0.0;
  double weighted_sum = 0.0;
  for (size_t s = 0; s < specs_.size(); ++s) {
    const FieldSimilaritySpec& spec = specs_[s];
    const Column& column = columns_[s];
    if (column.state[i] == FieldState::kMissing ||
        column.state[j] == FieldState::kMissing) {
      return Status::InvalidArgument(
          StrFormat("field index %d out of range", spec.field_index));
    }
    if (column.state[i] == FieldState::kRawEmpty &&
        column.state[j] == FieldState::kRawEmpty) {
      continue;  // skip; renormalize below
    }

    double sim = 0.0;
    switch (spec.measure) {
      case FieldMeasure::kJaccardWords:
      case FieldMeasure::kQGramJaccard: {
        // Jaccard: shared ids over the union; two empty sets score 1.
        const size_t na = column.set_offsets[i + 1] - column.set_offsets[i];
        const size_t nb = column.set_offsets[j + 1] - column.set_offsets[j];
        if (na == 0 && nb == 0) {
          sim = 1.0;
        } else {
          const size_t shared = overlap(s, i, j);
          sim = static_cast<double>(shared) /
                static_cast<double>(na + nb - shared);
        }
        break;
      }
      case FieldMeasure::kLevenshtein:
        sim = edit(s, i, j);
        break;
      case FieldMeasure::kJaroWinkler:
        sim = JaroWinklerSimilarity(column.text[i], column.text[j]);
        break;
      case FieldMeasure::kTfIdfCosine:
        if (!column.tfidf_fit) {
          return Status::FailedPrecondition(
              "kTfIdfCosine requires FitTfIdf() before Score()");
        }
        sim = TfIdfCosine(column.tfidf[i], column.tfidf[j]);
        break;
      case FieldMeasure::kNumeric:
        sim = NumericProximity(column.number[i], column.number[j]);
        break;
    }
    weighted_sum += spec.weight * sim;
    total_weight += spec.weight;
  }
  if (total_weight == 0.0) return 0.0;
  return std::clamp(weighted_sum / total_weight, 0.0, 1.0);
}

Result<double> PreparedRecords::Score(size_t i, size_t j) const {
  return ScoreWith(
      i, j,
      [this](size_t s, size_t a, size_t b) {
        const Column& column = columns_[s];
        const uint32_t* offsets = column.set_offsets.data();
        const int32_t* ids = column.set_ids.data();
        return OverlapSize(ids + offsets[a], offsets[a + 1] - offsets[a],
                           ids + offsets[b], offsets[b + 1] - offsets[b]);
      },
      [this](size_t s, size_t a, size_t b) {
        return LevenshteinSimilarity(columns_[s].text[a], columns_[s].text[b]);
      });
}

PreparedRecords::RowCursor::RowCursor(const PreparedRecords& prepared)
    : prepared_(&prepared),
      row_(std::string::npos),
      marks_(prepared.specs_.size()),
      patterns_(prepared.specs_.size()) {
  for (size_t s = 0; s < marks_.size(); ++s) {
    if (IsSetMeasure(prepared.specs_[s].measure)) {
      marks_[s].assign(prepared.columns_[s].num_tokens, 0);
    } else if (prepared.specs_[s].measure == FieldMeasure::kLevenshtein) {
      patterns_[s] = std::make_unique<LevenshteinPattern>();
    }
  }
}

Result<double> PreparedRecords::RowCursor::Score(size_t i, size_t j) {
  const PreparedRecords& prepared = *prepared_;
  if (i != row_ && i < prepared.num_records_) {
    // Unmark the old row's sets and mark the new one's; the new row's texts
    // become the edit patterns.
    for (size_t s = 0; s < marks_.size(); ++s) {
      if (patterns_[s] != nullptr) {
        patterns_[s]->Reset(prepared.columns_[s].text[i]);
        continue;
      }
      if (marks_[s].empty()) continue;
      const Column& column = prepared.columns_[s];
      const int32_t* ids = column.set_ids.data();
      if (row_ != std::string::npos) {
        for (uint32_t k = column.set_offsets[row_];
             k < column.set_offsets[row_ + 1]; ++k) {
          marks_[s][static_cast<size_t>(ids[k])] = 0;
        }
      }
      for (uint32_t k = column.set_offsets[i]; k < column.set_offsets[i + 1];
           ++k) {
        marks_[s][static_cast<size_t>(ids[k])] = 1;
      }
    }
    row_ = i;
  }
  return prepared.ScoreWith(
      i, j,
      [this](size_t s, size_t, size_t b) {
        const Column& column = prepared_->columns_[s];
        const int32_t* ids = column.set_ids.data();
        const uint8_t* marks = marks_[s].data();
        size_t shared = 0;
        for (uint32_t k = column.set_offsets[b];
             k < column.set_offsets[b + 1]; ++k) {
          shared += marks[static_cast<size_t>(ids[k])];
        }
        return shared;
      },
      [this](size_t s, size_t, size_t b) {
        return patterns_[s]->Similarity(prepared_->columns_[s].text[b]);
      });
}

}  // namespace crowdjoin
