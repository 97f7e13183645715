#include "text/record_similarity.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/macros.h"
#include "common/string_util.h"
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
void AppendTokenSet(const std::vector<std::string>& tokens, TokenIdMap& ids,
                    std::vector<int32_t>& out) {
  const auto begin = static_cast<std::ptrdiff_t>(out.size());
  for (const std::string& token : tokens) {
    const auto next_id = static_cast<int32_t>(ids.size());
    out.push_back(ids.emplace(token, next_id).first->second);
  }
  std::sort(out.begin() + begin, out.end());
  out.erase(std::unique(out.begin() + begin, out.end()), out.end());
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

Result<PreparedRecords> RecordScorer::Prepare(const RecordSet& records) const {
  for (const FieldSimilaritySpec& spec : specs_) {
    CJ_RETURN_IF_ERROR(ValidateSpec(spec));
  }
  using FieldState = PreparedRecords::FieldState;
  PreparedRecords prepared;
  prepared.specs_ = specs_;
  prepared.num_records_ = records.size();
  prepared.columns_.resize(specs_.size());
  const size_t n = records.size();
  for (size_t s = 0; s < specs_.size(); ++s) {
    const FieldSimilaritySpec& spec = specs_[s];
    const auto f = static_cast<size_t>(spec.field_index);
    PreparedRecords::Column& column = prepared.columns_[s];
    column.state.resize(n, FieldState::kMissing);
    TokenIdMap ids;
    switch (spec.measure) {
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
    for (size_t r = 0; r < n; ++r) {
      const Record& record = records[r];
      if (f < record.fields.size()) {
        const std::string& field = record.fields[f];
        column.state[r] =
            field.empty() ? FieldState::kRawEmpty : FieldState::kPresent;
        switch (spec.measure) {
          case FieldMeasure::kJaccardWords:
            AppendTokenSet(WordTokens(field), ids, column.set_ids);
            break;
          case FieldMeasure::kQGramJaccard:
            AppendTokenSet(QGrams(field, spec.q), ids, column.set_ids);
            break;
          case FieldMeasure::kLevenshtein:
          case FieldMeasure::kJaroWinkler:
            column.text[r] = NormalizeText(field);
            break;
          case FieldMeasure::kTfIdfCosine:
            column.tfidf[r] = tfidf_models_[s].Weigh(WordTokens(field), ids);
            break;
          case FieldMeasure::kNumeric:
            column.number[r] = ParseNumericField(field);
            break;
        }
      }
      if (!column.set_offsets.empty()) {
        column.set_offsets[r + 1] =
            static_cast<uint32_t>(column.set_ids.size());
      }
    }
  }
  return prepared;
}

Result<double> RecordScorer::Score(const Record& a, const Record& b) const {
  CJ_ASSIGN_OR_RETURN(const PreparedRecords prepared, Prepare({a, b}));
  return prepared.Score(0, 1);
}

Result<double> PreparedRecords::Score(size_t i, size_t j) const {
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
        const uint32_t* offsets = column.set_offsets.data();
        const int32_t* ids = column.set_ids.data();
        sim = JaccardSimilarity(ids + offsets[i], offsets[i + 1] - offsets[i],
                                ids + offsets[j], offsets[j + 1] - offsets[j]);
        break;
      }
      case FieldMeasure::kLevenshtein:
        sim = LevenshteinSimilarity(column.text[i], column.text[j]);
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

}  // namespace crowdjoin
