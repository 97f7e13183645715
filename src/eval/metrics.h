#ifndef CROWDJOIN_EVAL_METRICS_H_
#define CROWDJOIN_EVAL_METRICS_H_

#include <cstdint>
#include <vector>

#include "core/candidate.h"
#include "core/labeling_result.h"
#include "core/oracle.h"
#include "graph/label.h"

namespace crowdjoin {

/// \brief Result-quality metrics over a labeled candidate set, using the
/// paper's Section 6.4 definitions:
///   tp = correctly labeled matching pairs,
///   fp = wrongly labeled matching pairs (truly non-matching),
///   fn = falsely labeled non-matching pairs (truly matching),
///   precision = tp/(tp+fp), recall = tp/(tp+fn),
///   F-measure  = harmonic mean of precision and recall.
struct QualityMetrics {
  int64_t true_positives = 0;
  int64_t false_positives = 0;
  int64_t false_negatives = 0;
  int64_t true_negatives = 0;
  double precision = 0.0;
  double recall = 0.0;
  double f_measure = 0.0;
};

/// Computes quality of `final_labels` (one per candidate position) against
/// the ground truth. Empty metrics (all zeros) when sizes mismatch is a
/// programming error and aborts.
QualityMetrics ComputeQuality(const CandidateSet& pairs,
                              const std::vector<Label>& final_labels,
                              const GroundTruthOracle& truth);

/// Final label per candidate position from a session report. Pairs a
/// budget-capped run left unlabeled fall back to non-matching — the usual
/// convention for budget sweeps (see `StopPolicy::Budget`).
std::vector<Label> ExtractFinalLabels(const LabelingReport& report);

}  // namespace crowdjoin

#endif  // CROWDJOIN_EVAL_METRICS_H_
