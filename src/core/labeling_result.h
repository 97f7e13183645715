#ifndef CROWDJOIN_CORE_LABELING_RESULT_H_
#define CROWDJOIN_CORE_LABELING_RESULT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/label.h"

namespace crowdjoin {

/// How a pair's final label was obtained (Section 2.3's terminology).
enum class LabelSource : uint8_t {
  kCrowdsourced = 0,  ///< asked to (and billed on) the crowd platform
  kDeduced = 1,       ///< inferred for free via transitive relations
};

/// Final label + provenance of one candidate pair.
struct PairOutcome {
  Label label = Label::kNonMatching;
  LabelSource source = LabelSource::kCrowdsourced;

  friend bool operator==(const PairOutcome&, const PairOutcome&) = default;
};

/// \brief Output of a `LabelingSession` run — the one result type every
/// schedule/stop/deduction policy combination produces.
struct LabelingReport {
  /// Outcome per candidate position; `nullopt` for pairs a budget-capped
  /// run could not reach (always engaged when `num_unlabeled == 0`).
  std::vector<std::optional<PairOutcome>> outcomes;
  /// Candidate pairs consumed (always == outcomes.size()).
  int64_t num_candidates = 0;
  int64_t num_crowdsourced = 0;
  int64_t num_deduced = 0;
  /// Pairs left undecided because the stop policy ran out of budget.
  int64_t num_unlabeled = 0;
  /// Contradictory labels seen by the cluster graph (noisy oracles only).
  int64_t num_conflicts = 0;
  /// Batch sizes, one entry per publication: all 1s under the sequential
  /// schedule, one entry per round under the round-parallel schedule
  /// (matching Figures 13–14), empty under instant decisions.
  std::vector<int64_t> crowdsourced_per_iteration;
  /// Candidate-stream rounds consumed (1 for a materialized run).
  int64_t num_stream_rounds = 0;
  /// Pairs decided by the one-to-one exclusivity rule (also counted in
  /// `num_deduced`); 0 unless `one_to_one`.
  int64_t num_one_to_one_deduced = 0;
  /// Crowd answers that matched an already-matched object (one-to-one rule
  /// bookkeeping); 0 unless `one_to_one`.
  int64_t num_exclusivity_violations = 0;

  friend bool operator==(const LabelingReport&,
                         const LabelingReport&) = default;
};

}  // namespace crowdjoin

#endif  // CROWDJOIN_CORE_LABELING_RESULT_H_
