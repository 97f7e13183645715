#include "simjoin/similarity_measure.h"

#include <cmath>

#include "text/normalize.h"
#include "text/tokenize.h"

namespace crowdjoin {

namespace {
constexpr int kEditQGram = 2;
}  // namespace

const SimilarityMeasure& SimilarityMeasure::Jaccard() {
  static const SimilarityMeasure measure(MeasureKind::kJaccard, 0);
  return measure;
}

const SimilarityMeasure& SimilarityMeasure::EditDistance() {
  static const SimilarityMeasure measure(MeasureKind::kEditDistance,
                                         kEditQGram);
  return measure;
}

const SimilarityMeasure& SimilarityMeasure::CosineTfIdf() {
  static const SimilarityMeasure measure(MeasureKind::kCosineTfIdf, 0);
  return measure;
}

const SimilarityMeasure& SimilarityMeasure::Get(MeasureKind kind) {
  switch (kind) {
    case MeasureKind::kJaccard:
      return Jaccard();
    case MeasureKind::kEditDistance:
      return EditDistance();
    case MeasureKind::kCosineTfIdf:
      return CosineTfIdf();
  }
  return Jaccard();  // unreachable for valid enum values
}

Result<MeasureKind> SimilarityMeasure::ParseKind(std::string_view name) {
  if (name == "jaccard") return MeasureKind::kJaccard;
  if (name == "edit") return MeasureKind::kEditDistance;
  if (name == "cosine") return MeasureKind::kCosineTfIdf;
  return Status::InvalidArgument(
      "unknown similarity measure (expected jaccard, edit, or cosine)");
}

const char* SimilarityMeasure::name() const {
  switch (kind_) {
    case MeasureKind::kJaccard:
      return "jaccard";
    case MeasureKind::kEditDistance:
      return "edit";
    case MeasureKind::kCosineTfIdf:
      return "cosine";
  }
  return "unknown";
}

MeasureDoc SimilarityMeasure::MakeDoc(std::string_view text,
                                      TokenDictionary& dictionary) const {
  return MakeNormalizedDoc(NormalizeText(text), dictionary);
}

MeasureDoc SimilarityMeasure::MakeNormalizedDoc(
    std::string_view normalized, TokenDictionary& dictionary) const {
  MeasureDoc doc;
  std::vector<std::string_view> tokens;
  if (kind_ == MeasureKind::kEditDistance) {
    // Signature: deduplicated character q-grams of the normalized string;
    // size and payload are the normalized string itself, which is what the
    // banded-DP verifier compares. Empty/whitespace-only text normalizes
    // to "" and yields no grams — the shared empty-doc contract.
    std::string padded;
    AppendNormalizedQGrams(normalized, qgram_, padded, tokens);
    doc.tokens = dictionary.AddDocumentViews(tokens);
    doc.payload = std::string(normalized);
    doc.size = static_cast<int32_t>(doc.payload.size());
    return doc;
  }
  // Set measures: word-token signature, size = distinct token count.
  AppendNormalizedWords(normalized, tokens);
  doc.tokens = dictionary.AddDocumentViews(tokens);
  doc.size = static_cast<int32_t>(doc.tokens.size());
  return doc;
}

std::vector<double> CosineRankWeights(const TokenDictionary& dictionary,
                                      const std::vector<int32_t>& ranks) {
  std::vector<double> weights(ranks.size(), 0.0);
  const double n = static_cast<double>(dictionary.num_documents());
  for (size_t token = 0; token < ranks.size(); ++token) {
    const double df =
        static_cast<double>(dictionary.Frequency(static_cast<int32_t>(token)));
    weights[static_cast<size_t>(ranks[token])] = std::log(1.0 + n / (1.0 + df));
  }
  return weights;
}

}  // namespace crowdjoin
