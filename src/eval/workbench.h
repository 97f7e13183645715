#ifndef CROWDJOIN_EVAL_WORKBENCH_H_
#define CROWDJOIN_EVAL_WORKBENCH_H_

#include <cstdint>

#include "common/result.h"
#include "core/candidate.h"
#include "datagen/dataset.h"
#include "simjoin/candidate_generator.h"

namespace crowdjoin {

/// \brief A ready-to-experiment bundle: a generated dataset plus the
/// machine-generated candidate set (all pairs with likelihood >= 0.1, the
/// loosest threshold any experiment sweeps).
///
/// Every figure/table harness starts from one of these, then applies its
/// own likelihood threshold with `FilterByThreshold`, so all experiments on
/// the same dataset see exactly the same candidates, as in the paper.
struct ExperimentInput {
  Dataset dataset;
  CandidateSet candidates;
};

/// The machine-step settings both workbenches generate candidates with: a
/// loose 0.08 join prune, the 0.1 likelihood cut, and 0.12 likelihood noise
/// seeded from `seed`.
CandidateGeneratorOptions WorkbenchGeneratorOptions(uint64_t seed);

/// Generates the Paper (Cora-like) dataset and its candidate set.
Result<ExperimentInput> MakePaperExperimentInput(uint64_t seed);

/// Generates the Product (Abt-Buy-like) bipartite dataset and candidates.
Result<ExperimentInput> MakeProductExperimentInput(uint64_t seed);

/// Pairs whose likelihood is >= `threshold` (the Section 6 sweeps).
CandidateSet FilterByThreshold(const CandidateSet& candidates,
                               double threshold);

}  // namespace crowdjoin

#endif  // CROWDJOIN_EVAL_WORKBENCH_H_
