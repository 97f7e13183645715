#!/usr/bin/env python3
"""Compare two Google Benchmark JSON files and flag hot-path regressions.

Usage:
  compare_benchmarks.py BASELINE.json CONTENDER.json [--threshold=0.15]
                        [--strict]

Benchmarks are matched by name; a contender whose real_time exceeds the
baseline's by more than --threshold (default 15%) is flagged. A benchmark
run with repetitions is represented by its `_median` aggregate (its `_mean`
when no median was written). Output is a
report table plus GitHub `::warning::` annotations so flagged rows surface
inline at PR time. Exit status is non-zero only with --strict (CI runs
non-strict so noisy shared runners warn instead of blocking merges).
"""

import argparse
import json
import re
import sys


def load_benchmarks(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    means = {}
    for bench in data.get("benchmarks", []):
        # "/repeats:N" marks the repetition count, not the benchmark, so a
        # row still matches across a change of its repetitions.
        name = re.sub(r"/repeats:\d+(?=_|$)", "", bench["name"])
        if bench.get("run_type") == "aggregate":
            # With repetitions, compare the median: one slow repetition on
            # a noisy runner moves the mean, not the median. The mean only
            # stands in for a file written without a median.
            if name.endswith("_median"):
                out[name[: -len("_median")]] = bench["real_time"]
            elif name.endswith("_mean"):
                means[name[: -len("_mean")]] = bench["real_time"]
        else:
            out.setdefault(name, bench["real_time"])
    for name, real_time in means.items():
        out.setdefault(name, real_time)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("contender")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="flag slowdowns beyond this ratio (0.15 = 15%%)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when any benchmark regresses")
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    contender = load_benchmarks(args.contender)

    common = sorted(set(baseline) & set(contender))
    if not common:
        # A rename/removal sweep leaves nothing to compare; warn instead of
        # failing so non-strict CI keeps its warn-don't-block contract.
        print("no common benchmarks between the two files", file=sys.stderr)
        print("::warning title=benchmark compare::no common benchmarks "
              "between baseline and contender")
        return 2 if args.strict else 0

    regressions = []
    print(f"{'benchmark':55s} {'baseline':>12s} {'contender':>12s} "
          f"{'ratio':>7s}")
    for name in common:
        base = baseline[name]
        cont = contender[name]
        ratio = cont / base if base > 0 else float("inf")
        marker = ""
        if ratio > 1.0 + args.threshold:
            marker = "  <-- REGRESSION"
            regressions.append((name, ratio))
        print(f"{name:55s} {base:12.0f} {cont:12.0f} {ratio:6.2f}x{marker}")

    only_base = sorted(set(baseline) - set(contender))
    if only_base:
        print(f"\nmissing from contender: {', '.join(only_base)}")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) slower than "
              f"{args.threshold:.0%} over baseline:")
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x")
            # GitHub annotation: shows up inline on the PR checks page.
            print(f"::warning title=benchmark regression::{name} is "
                  f"{ratio:.2f}x baseline real_time")
        return 1 if args.strict else 0
    print("\nno hot-path regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
