// Ablation for Section 8's "other kinds of relations" future work: how
// much does the one-to-one relation save on top of transitivity on the
// bipartite Product dataset, and what does it cost when the assumption is
// (slightly) wrong?

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/labeling_order.h"
#include "core/labeling_session.h"
#include "eval/metrics.h"
#include "eval/workbench.h"

namespace {

using namespace crowdjoin;  // NOLINT(build/namespaces)
using crowdjoin::bench::Unwrap;

}  // namespace

int main(int argc, char** argv) {
  const crowdjoin::bench::Args args(argc, argv);
  const uint64_t seed = args.GetUint64("seed", 42);

  std::printf("=== Ablation: one-to-one relation on the bipartite Product "
              "dataset ===\n");
  const ExperimentInput input = Unwrap(MakeProductExperimentInput(seed));
  GroundTruthOracle truth = MakeGroundTruthOracle(input.dataset);

  TablePrinter table({"threshold", "candidates", "Transitive",
                      "Transitive+1:1", "extra saved", "1:1 F-measure"});
  for (double threshold : {0.5, 0.4, 0.3, 0.2}) {
    const CandidateSet pairs =
        FilterByThreshold(input.candidates, threshold);
    const std::vector<int32_t> order = Unwrap(MakeLabelingOrder(
        pairs, OrderKind::kExpected, &truth, /*rng=*/nullptr));

    GroundTruthOracle oracle1 = truth;
    LabelingSession plain_session;  // sequential, transitive only
    const LabelingReport plain =
        Unwrap(plain_session.Run(pairs, order, oracle1));
    GroundTruthOracle oracle2 = truth;
    LabelingSessionOptions options;
    options.one_to_one = true;  // + the exclusivity rule
    LabelingSession one_to_one_session(options);
    const LabelingReport one_to_one =
        Unwrap(one_to_one_session.Run(pairs, order, oracle2));

    // Quality of the one-to-one run: the rule can wrongly exclude a true
    // match when an entity has several records on one side.
    const QualityMetrics quality =
        ComputeQuality(pairs, ExtractFinalLabels(one_to_one), truth);

    const double extra_saved =
        plain.num_crowdsourced == 0
            ? 0.0
            : 100.0 *
                  static_cast<double>(plain.num_crowdsourced -
                                      one_to_one.num_crowdsourced) /
                  static_cast<double>(plain.num_crowdsourced);
    table.AddRow({StrFormat("%.1f", threshold), std::to_string(pairs.size()),
                  std::to_string(plain.num_crowdsourced),
                  std::to_string(one_to_one.num_crowdsourced),
                  StrFormat("%.1f%%", extra_saved),
                  StrFormat("%.2f%%", 100.0 * quality.f_measure)});
  }
  table.Print(std::cout);
  std::printf("(the Product dataset is only *mostly* one-to-one: clusters "
              "of size >= 3 put two records on one side, so the rule "
              "trades a little recall for the extra savings)\n");
  return 0;
}
