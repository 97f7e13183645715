#ifndef CROWDJOIN_BENCH_PARALLEL_COMPARISON_H_
#define CROWDJOIN_BENCH_PARALLEL_COMPARISON_H_

#include "eval/workbench.h"

namespace crowdjoin::bench {

/// Shared body of the Figure 13 / Figure 14 harnesses: runs the session's
/// sequential (Non-Parallel) and round-parallel schedules on the candidate
/// pairs above `threshold` in the expected order, and prints iteration
/// counts, the parallel per-iteration batch-size series, and labeling wall
/// clock.
///
/// The round-parallel run fans its oracle calls over `num_threads` worker
/// threads; the run also re-executes single-threaded and aborts if the two
/// `LabelingReport`s differ, so every bench run re-checks the determinism
/// contract on paper-scale data.
void RunParallelComparison(const ExperimentInput& input, double threshold,
                           int num_threads = 1);

}  // namespace crowdjoin::bench

#endif  // CROWDJOIN_BENCH_PARALLEL_COMPARISON_H_
