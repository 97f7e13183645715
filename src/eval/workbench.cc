#include "eval/workbench.h"

#include "common/macros.h"
#include "datagen/paper_dataset.h"
#include "datagen/product_dataset.h"

namespace crowdjoin {

CandidateGeneratorOptions WorkbenchGeneratorOptions(uint64_t seed) {
  CandidateGeneratorOptions options;
  options.token_join_threshold = 0.08;
  options.min_likelihood = 0.10;
  options.likelihood_noise_stddev = 0.12;
  options.noise_seed = seed ^ 0x9E3779B9u;
  return options;
}

Result<ExperimentInput> MakePaperExperimentInput(uint64_t seed) {
  PaperDatasetConfig config;
  config.seed = seed;
  CJ_ASSIGN_OR_RETURN(Dataset dataset, GeneratePaperDataset(config));

  RecordScorer scorer = MakePaperScorer();
  scorer.FitTfIdf(dataset.records);
  CJ_ASSIGN_OR_RETURN(
      CandidateSet candidates,
      GenerateCandidates(dataset.records, /*side_of=*/nullptr, scorer,
                         WorkbenchGeneratorOptions(seed)));
  return ExperimentInput{std::move(dataset), std::move(candidates)};
}

Result<ExperimentInput> MakeProductExperimentInput(uint64_t seed) {
  ProductDatasetConfig config;
  config.seed = seed;
  CJ_ASSIGN_OR_RETURN(Dataset dataset, GenerateProductDataset(config));

  RecordScorer scorer = MakeProductScorer();
  scorer.FitTfIdf(dataset.records);
  CJ_ASSIGN_OR_RETURN(CandidateSet candidates,
                      GenerateCandidates(dataset.records, &dataset.side_of,
                                         scorer,
                                         WorkbenchGeneratorOptions(seed)));
  return ExperimentInput{std::move(dataset), std::move(candidates)};
}

CandidateSet FilterByThreshold(const CandidateSet& candidates,
                               double threshold) {
  CandidateSet filtered;
  for (const CandidatePair& pair : candidates) {
    if (pair.likelihood >= threshold) filtered.push_back(pair);
  }
  return filtered;
}

}  // namespace crowdjoin
