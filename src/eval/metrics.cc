#include "eval/metrics.h"

#include "common/macros.h"

namespace crowdjoin {

QualityMetrics ComputeQuality(const CandidateSet& pairs,
                              const std::vector<Label>& final_labels,
                              const GroundTruthOracle& truth) {
  CJ_CHECK(pairs.size() == final_labels.size());
  QualityMetrics metrics;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Label real = truth.Truth(pairs[i].a, pairs[i].b);
    const Label predicted = final_labels[i];
    if (predicted == Label::kMatching) {
      if (real == Label::kMatching) {
        ++metrics.true_positives;
      } else {
        ++metrics.false_positives;
      }
    } else {
      if (real == Label::kMatching) {
        ++metrics.false_negatives;
      } else {
        ++metrics.true_negatives;
      }
    }
  }
  const double tp = static_cast<double>(metrics.true_positives);
  const double fp = static_cast<double>(metrics.false_positives);
  const double fn = static_cast<double>(metrics.false_negatives);
  metrics.precision = (tp + fp) > 0.0 ? tp / (tp + fp) : 0.0;
  metrics.recall = (tp + fn) > 0.0 ? tp / (tp + fn) : 0.0;
  metrics.f_measure =
      (metrics.precision + metrics.recall) > 0.0
          ? 2.0 * metrics.precision * metrics.recall /
                (metrics.precision + metrics.recall)
          : 0.0;
  return metrics;
}

std::vector<Label> ExtractFinalLabels(const LabelingReport& report) {
  std::vector<Label> labels;
  labels.reserve(report.outcomes.size());
  for (const std::optional<PairOutcome>& outcome : report.outcomes) {
    labels.push_back(outcome.has_value() ? outcome->label
                                         : Label::kNonMatching);
  }
  return labels;
}

}  // namespace crowdjoin
