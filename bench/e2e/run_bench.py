#!/usr/bin/env python3
"""Builds, runs and judges the end-to-end benchmark.

From the repository root:

  python3 bench/e2e/run_bench.py              # every workload at seed 42
  python3 bench/e2e/run_bench.py --trace      # plus a traced process each
  python3 bench/e2e/run_bench.py --quick      # SF 10 / SF 1 smoke (CI pins)
  python3 bench/e2e/run_bench.py --compare OLD.json NEW.json
  python3 bench/e2e/run_bench.py --self-test

One run in the harness form prints its metrics as one JSON object on the
last line of stdout (end-to-end metrics untraced, per-layer ones traced):

  python3 bench/e2e/run_bench.py --workload campaign_sf100 --seed 7 \
      --seconds 12 --trace 0

The measuring is done by build-e2e/e2e_bench, built here in Release from
bench/e2e/CMakeLists.txt; this script turns its raw output into metrics,
checks the pins in bench/e2e/pins.json, and exits non-zero on any failed
op or pin drift.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "e2e_bench"
RESULTS = BUILD / "results"
PINS = HERE / "pins.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ("campaign_sf100", "stream_sf100", "instant_planner", "serve_sf10")
LAYERS = ("datagen", "text", "simjoin", "core", "crowd", "serve")
# Sites the instant probe times once per traced process, not once per rep.
PROBE_SITES = ("core.instant_start", "core.instant_on_label",
               "core.instant_finish")
DEFAULT_BOUND = 0.10
RUN_TIMEOUT_S = 170

# Every end-to-end metric a workload can report: unit, and which direction
# is better ("exact": a count that must not move at all).
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "campaign_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "crowd_asks": ("pairs", "lower"),
    "candidates": ("pairs", "exact"),
    "deduced": ("pairs", "higher"),
    "rounds": ("rounds", "exact"),
    "hits": ("HITs", "lower"),
    "sim_hours": ("sim_h", "lower"),
    "f_measure": ("ratio", "higher"),
    "clusters": ("clusters", "exact"),
    "ingest_rps": ("records/s", "higher"),
    "ingest_p50_ms": ("ms", "lower"),
    "ingest_tail_ms": ("ms", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "query_tail_ms": ("ms", "lower"),
}
# Metrics that are exact functions of the seed. Two runs at one seed agree
# on them to the last digit, so --compare calls any move in the worse
# direction a regression, however small against the bound.
DETERMINISTIC = {"crowd_asks", "deduced", "hits", "sim_hours", "f_measure"}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

# (per-mille, label), highest first.
PERCENTILES = ((999, "p99.9"), (990, "p99"), (900, "p90"), (500, "p50"))


def nearest_rank_index(n, per_mille):
    """0-based index of the per-mille percentile of n sorted samples."""
    return max(1, -(-per_mille * n // 1000)) - 1


def nearest_rank(sorted_values, per_mille):
    """Nearest-rank percentile: the smallest sample with at least
    per_mille/1000 of the samples at or below it. None when empty."""
    if not sorted_values:
        return None
    return sorted_values[nearest_rank_index(len(sorted_values), per_mille)]


def tail_percentile(n):
    """The highest percentile with at least ten of n samples beyond it, as
    (per_mille, label); None when even the median has fewer."""
    for per_mille, label in PERCENTILES:
        if n - (nearest_rank_index(n, per_mille) + 1) >= 10:
            return per_mille, label
    return None


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def relative_spread(values):
    """Interquartile range as a share of the median (0 for one value)."""
    mid = median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(mid)


def latency_summary(per_rep):
    """Per-rep nearest-rank p50 and tail, then their median across reps.
    Every rep uses the tail percentile the smallest rep supports."""
    reps = [sorted(r) for r in per_rep if r]
    if not reps:
        return None
    tail = tail_percentile(min(len(r) for r in reps))
    summary = {
        "samples_per_rep": [len(r) for r in reps],
        "p50_reps": [nearest_rank(r, 500) for r in reps],
    }
    summary["p50"] = median(summary["p50_reps"])
    if tail is not None:
        summary["tail_label"] = tail[1]
        summary["tail_reps"] = [nearest_rank(r, tail[0]) for r in reps]
        summary["tail"] = median(summary["tail_reps"])
    return summary


# ---------------------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------------------

def build():
    """Configures (once) and builds e2e_bench; exits 1 on failure."""
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    commands = []
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        commands.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    commands.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                     "-j", jobs])
    with open(log_path, "w") as log:
        for command in commands:
            code = subprocess.run(command, cwd=ROOT, stdout=log,
                                  stderr=subprocess.STDOUT).returncode
            if code != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.stderr.write(f"run_bench: build failed ({log_path})\n")
                sys.exit(1)


def run_e2e_bench(workload, seed, seconds, traced, quick, min_reps, setups,
                  trace_json=None):
    """Runs one e2e_bench process; returns (exit code, its JSON or None)."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    tag = ("-quick" if quick else "") + ("-traced" if traced else "")
    out = RESULTS / f"{workload}-seed{seed}{tag}.raw.json"
    if out.exists():
        out.unlink()
    command = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--min_reps={min_reps}",
               f"--setups={setups}", f"--traced={int(traced)}",
               f"--quick={int(quick)}", f"--out={out}", f"--tmp_dir={tmp}"]
    if trace_json:
        command.append(f"--trace_json={trace_json}")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run_bench: {workload} timed out\n")
        return 124, None
    sys.stderr.write(proc.stderr)
    data = json.loads(out.read_text()) if out.exists() else None
    return proc.returncode, data


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def e2e_metrics(raw):
    """End-to-end metrics of an untraced process, plus the per-rep values
    behind each timing (for quartiles and comparisons)."""
    counts = raw.get("counts", {})
    values = {"setup_s": raw["setup_s"], "campaign_s": raw["campaign_s"],
              "peak_rss_mib": [raw["peak_rss_mib"]]}
    for name in ("crowd_asks", "candidates", "deduced", "rounds", "hits",
                 "sim_hours", "f_measure", "clusters"):
        if name in counts:
            values[name] = [counts[name]]
    samples = raw.get("samples", {})
    if "records" in counts:
        values["ingest_rps"] = [counts["records"] / s
                                for s in raw["campaign_s"]]
    latencies = {}
    for prefix, key in (("ingest", "ingest_ms"), ("query", "query_ms")):
        summary = latency_summary(samples.get(key, []))
        if summary is None:
            continue
        latencies[prefix] = summary
        values[f"{prefix}_p50_ms"] = summary["p50_reps"]
        if "tail" in summary:
            values[f"{prefix}_tail_ms"] = summary["tail_reps"]
    metrics = {name: median(v) for name, v in values.items()}
    return metrics, values, latencies


def layer_metrics(raw):
    """Per-layer metrics of a traced process. Seconds are per traced rep
    (the instant probe's sites: per process); shares are of the traced
    wall clock, counted on the thread that drives the workload."""
    ledger = raw["ledger"]
    wall = ledger["wall_s"]
    reps = max(1, len(raw["traced_campaign_s"]))
    sites = ledger["sites"]
    obs = raw.get("obs", {})
    extras = raw.get("layer_extras", {})
    counts = raw.get("counts", {})
    samples = raw.get("samples", {})

    def site(name, key="wall_s"):
        value = sites.get(name, {}).get(key, 0.0)
        return value if name in PROBE_SITES else value / reps

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        # The untraced reps of the traced process: campaign time on the
        # machine as it was during this run.
        "campaign_s": median(raw["campaign_s"]),
        "trace.campaign_s": median(raw["traced_campaign_s"]),
        "trace.overhead": ratio(median(raw["traced_campaign_s"]),
                                median(raw["campaign_s"])),
        "trace.layer_coverage": ratio(sum(ledger["layers"].values()), wall),
        "datagen.next_s": site("datagen.next"),
        "datagen.records": site("datagen.next", "calls"),
        "text.tokenize_s": site("text.tokenize"),
        "text.tokens": extras.get("tokens", 0.0) / reps,
        "simjoin.dictionary_s": site("simjoin.dictionary"),
        "simjoin.shard_add_s": site("simjoin.shard_add"),
        "simjoin.index_build_s": site("simjoin.index_build"),
        "simjoin.probe_s": site("simjoin.probe") + site("simjoin.next_round"),
        "simjoin.probe_cpu_s": extras.get("probe_cpu_s", 0.0) / reps,
        "simjoin.probe_parallelism": ratio(extras.get("probe_cpu_s", 0.0),
                                           extras.get("probe_wall_s", 0.0)),
        "simjoin.feed_open_s": site("simjoin.feed_open", "self_s"),
        "simjoin.pairs_emitted": obs.get("pairs_emitted", 0.0) / reps,
        "simjoin.prefilter_candidates":
            obs.get("prefilter_candidates", 0.0) / reps,
        "simjoin.verify_yield": ratio(obs.get("pairs_emitted", 0.0),
                                      obs.get("prefilter_candidates", 0.0)),
        "pool.task_wait_s": obs.get("pool_task_wait_s", 0.0) / reps,
        "pool.task_run_s": obs.get("pool_task_run_s", 0.0) / reps,
        "pool.tasks": obs.get("pool_tasks", 0.0) / reps,
        "pool.wait_share": ratio(
            obs.get("pool_task_wait_s", 0.0),
            obs.get("pool_task_wait_s", 0.0) + obs.get("pool_task_run_s",
                                                       0.0)),
        "core.order_s": site("core.order"),
        "core.session_self_s": (site("core.run", "self_s") +
                                site("core.run_stream", "self_s")),
        "core.rounds": counts.get("rounds", 0.0),
        "core.checkpoint_writes": extras.get("checkpoint_writes", 0.0) / reps,
        "core.checkpoint_bytes": extras.get("checkpoint_bytes", 0.0) / reps,
        "core.instant_on_label_s": site("core.instant_on_label"),
        "crowd.oracle_s": site("crowd.oracle"),
        "crowd.oracle_calls": site("crowd.oracle", "calls"),
        "crowd.fault_attempts": extras.get("fault_attempts", 0.0) / reps,
        "crowd.amt_campaign_s": site("crowd.amt_campaign"),
        "serve.ingest_busy_s": site("serve.ingest"),
        "serve.label_ratio": 0.0,
        "core.deduce_ratio": 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = ratio(ledger["layers"].get(layer, 0.0), wall)
    if "records" in counts:  # serving: crowd asks are the labels
        m["serve.label_ratio"] = ratio(counts["crowd_asks"],
                                       counts["candidates"])
        m["core.deduce_ratio"] = 1.0 - m["serve.label_ratio"]
    elif counts.get("candidates"):
        m["core.deduce_ratio"] = ratio(
            counts.get("deduced", 0.0),
            counts["candidates"] * counts.get("campaigns", 1.0))
    for name, key in (("core.instant_on_label_us", "instant_on_label_us"),
                      ("serve.on_label_us", "on_label_us"),
                      ("serve.deduce_us", "deduce_us"),
                      ("serve.query_service_us", "query_service_us"),
                      ("serve.resolve_us", "resolve_us"),
                      ("load.gen_late_ms", "gen_late_ms")):
        summary = latency_summary(samples.get(key, []))
        if summary is None:
            continue
        m[f"{name}_p50"] = summary["p50"]
        if "tail" in summary:
            m[f"{name}_tail"] = summary["tail"]
            m[f"{name}_tail_label"] = summary["tail_label"]
    for layer, seconds in raw.get("setup_ledger", {}).get("layers",
                                                           {}).items():
        m[f"setup.{layer}_s"] = seconds
    return m


def load_benchmark():
    return json.loads(BENCHMARK_JSON.read_text())


def result_line(metrics, definitions):
    """The harness's last line: exactly the metrics BENCHMARK.json names."""
    out = {}
    for definition in definitions:
        name = definition["name"]
        if name not in metrics:
            raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": metrics[name], "unit": definition["unit"]}
    return out


def check_pins(workload, seed, quick, counts):
    """(checks made, drift messages) against pins.json; no pins, no checks.
    Counts must match exactly; floats to 1e-9 relative."""
    pins = json.loads(PINS.read_text())
    table = pins["quick" if quick else "full"].get(str(seed), {})
    expected = table.get(workload)
    if expected is None:
        return 0, []
    checks, drift = 0, []
    for name, want in expected.items():
        if name not in counts:
            continue  # e.g. the stream checksum exists only when traced
        checks += 1
        got = counts[name]
        if isinstance(want, float) or isinstance(got, float):
            ok = math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        else:
            ok = got == want
        if not ok:
            drift.append(f"{workload} seed {seed}: {name} = {got}, "
                         f"pinned {want}")
    return checks, drift


# ---------------------------------------------------------------------------
# Harness mode: one workload, one run, one JSON line
# ---------------------------------------------------------------------------

def run_one(args):
    benchmark = load_benchmark()
    traced = bool(args.trace)
    build()
    trace_json = RESULTS / f"{args.workload}.trace.json" if traced else None
    # Two reps at least: serve_sf10's reps run 5-10 s, and a third would
    # stretch every run of it well past --seconds.
    code, raw = run_e2e_bench(args.workload, args.seed, args.seconds,
                              traced, args.quick, min_reps=2, setups=3,
                              trace_json=trace_json)
    if raw is None:
        sys.stderr.write(f"run_bench: e2e_bench exited {code} without "
                         "results\n")
        return 1
    checks, drift = check_pins(args.workload, args.seed, args.quick,
                               raw.get("counts", {}))
    for message in drift + raw.get("failures", []):
        sys.stderr.write(f"run_bench: FAILED: {message}\n")
    failed = int(raw["failed_ops"]) + len(drift)
    if traced:
        metrics = layer_metrics(raw)
        definitions = benchmark["per_layer"]
    else:
        metrics = e2e_metrics(raw)[0]
        definitions = benchmark["end_to_end"]
    correct = code == 0 and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["ops"]) + checks,
        "failed": failed if failed or correct else 1,
        "metrics": result_line(metrics, definitions),
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Suite mode: every workload, tables, a results file
# ---------------------------------------------------------------------------

def fmt(value):
    if isinstance(value, str):
        return value
    if value is None:
        return "-"
    if value == 0 or 1e-3 <= abs(value) < 1e7:
        return f"{value:.6g}"
    return f"{value:.4e}"


def print_table(rows, header):
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())


def run_suite(args):
    benchmark = load_benchmark()
    seconds = args.seconds if args.seconds is not None else (
        1 if args.quick else benchmark["run_seconds"])
    build()
    results = {"schema": 1, "seed": args.seed, "quick": args.quick,
               "seconds": seconds, "nproc": os.cpu_count(),
               "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
               "workloads": {}}
    failures = []

    def check(workload, raw, what):
        failures.extend(f"{workload}{what}: {f}" for f in raw["failures"])
        failures.extend(check_pins(workload, args.seed, args.quick,
                                   raw.get("counts", {}))[1])

    for workload in WORKLOADS:
        code, raw = run_e2e_bench(workload, args.seed, seconds, False,
                                  args.quick,
                                  min_reps=1 if args.quick else 3,
                                  setups=1 if args.quick else 3)
        if raw is None:
            failures.append(f"{workload}: no results (exit {code})")
            continue
        metrics, values, latencies = e2e_metrics(raw)
        entry = {"metrics": metrics, "values": values, "latency": latencies,
                 "counts": raw.get("counts", {}), "ops": raw["ops"],
                 "failed_ops": raw["failed_ops"]}
        check(workload, raw, "")
        if code != 0 and not raw["failures"]:
            failures.append(f"{workload}: e2e_bench exited {code}")
        if args.trace:
            trace_json = RESULTS / f"{workload}.trace.json"
            code, raw = run_e2e_bench(workload, args.seed, seconds, True,
                                      args.quick,
                                      min_reps=1 if args.quick else 2,
                                      setups=1, trace_json=trace_json)
            if raw is None:
                failures.append(f"{workload}: no traced results (exit {code})")
            else:
                entry["layers"] = layer_metrics(raw)
                entry["trace_json"] = str(trace_json)
                check(workload, raw, " traced")
        results["workloads"][workload] = entry
        print_workload(workload, entry, benchmark)

    out = Path(args.out) if args.out else RESULTS / (
        f"e2e-seed{args.seed}{'-quick' if args.quick else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    results["failures"] = failures
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults: {out}")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


def bounds_of(benchmark):
    return {m["name"]: m for m in benchmark["end_to_end"]}


def print_workload(workload, entry, benchmark):
    listed = bounds_of(benchmark)
    print(f"\n== {workload} ==")
    rows = []
    for name, values in entry["values"].items():
        unit, _ = E2E_METRICS[name]
        unit = listed.get(name, {}).get("unit", unit)
        q1, q3 = quartiles(values)
        label = name
        if name.endswith("_tail_ms"):
            latency = entry["latency"][name.split("_")[0]]
            label = f"{name} ({latency['tail_label']}, " \
                    f"{min(latency['samples_per_rep'])}+ samples/rep)"
        rows.append([label, unit, fmt(median(values)),
                     f"{fmt(q1)} .. {fmt(q3)}", len(values)])
    print_table(rows, ["metric", "unit", "median", "q1 .. q3", "n"])
    layers = entry.get("layers")
    if layers:
        print(f"-- per layer ({workload}, traced; zeros omitted) --")
        rows = [[name, fmt(value)] for name, value in sorted(layers.items())
                if value]
        print_table(rows, ["layer metric", "value"])


# ---------------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------------

def verdict(old, new, better, bound, deterministic=False):
    """improved / unchanged / regressed / unresolved for one metric, with
    the parent's and the change's values (choosing-metrics section 6.5:
    a spread wider than the bound is unresolved unless every new value
    beats every old one). A deterministic metric has no noise to allow
    for: any move is a verdict."""
    if better == "exact":
        return "unchanged" if sorted(old) == sorted(new) else "changed"
    sign = 1.0 if better == "lower" else -1.0
    old_mid, new_mid = median(old), median(new)
    if deterministic:
        if math.isclose(new_mid, old_mid, rel_tol=1e-9, abs_tol=1e-12):
            return "unchanged"
        return "regressed" if sign * (new_mid - old_mid) > 0 else "improved"
    if old_mid == 0:
        return "unchanged" if new_mid == 0 else "unresolved"
    worse_by = sign * (new_mid - old_mid) / abs(old_mid)
    if len(old) < 2 or len(new) < 2:  # no spread to judge: only the bound
        return ("regressed" if worse_by > bound else
                "improved" if -worse_by > bound else "unchanged")
    pairs = [(o, n) for o in old for n in new]
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0) / len(pairs)
    if max(relative_spread(old), relative_spread(new)) > bound:
        return "improved" if wins == 1.0 else "unresolved"
    if worse_by > bound:
        return "regressed"
    if -worse_by > relative_spread(old) and wins >= 0.9:
        return "improved"
    return "unchanged"


def compare(old_path, new_path):
    benchmark = load_benchmark()
    listed = bounds_of(benchmark)
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    if (old["seed"], old["quick"]) != (new["seed"], new["quick"]):
        sys.stderr.write("run_bench: --compare needs two runs with the same "
                         "--seed and --quick\n")
        return 2
    regressed = False
    for workload in WORKLOADS:
        if workload not in old["workloads"] or \
                workload not in new["workloads"]:
            continue
        o, n = old["workloads"][workload], new["workloads"][workload]
        print(f"\n== {workload} ==")
        rows = []
        for name in E2E_METRICS:
            if name not in o["values"] or name not in n["values"]:
                continue
            unit, better = E2E_METRICS[name]
            better = listed.get(name, {}).get("better", better)
            bound = listed.get(name, {}).get("bound", DEFAULT_BOUND)
            old_values, new_values = o["values"][name], n["values"][name]
            v = verdict(old_values, new_values, better, bound,
                        name in DETERMINISTIC)
            regressed = regressed or v in ("regressed", "changed")
            delta = (median(new_values) - median(old_values)) / \
                median(old_values) if median(old_values) else 0.0
            exact = better == "exact" or name in DETERMINISTIC
            rows.append([name, unit, fmt(median(old_values)),
                         fmt(median(new_values)), f"{delta:+.1%}",
                         "exact" if exact else f"{bound:.0%}", v])
        print_table(rows, ["metric", "unit", "old", "new", "delta", "bound",
                           "verdict"])
        old_layers, new_layers = o.get("layers", {}), n.get("layers", {})
        if old_layers and new_layers:
            print(f"-- per layer ({workload}) --")
            rows = []
            for name in sorted(set(old_layers) & set(new_layers)):
                a, b = old_layers[name], new_layers[name]
                if isinstance(a, str) or isinstance(b, str) or a == b == 0:
                    continue
                delta = f"{(b - a) / a:+.1%}" if a else "-"
                rows.append([name, fmt(a), fmt(b), delta])
            print_table(rows, ["layer metric", "old", "new", "delta"])
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

def self_test():
    checks = []

    def expect(name, got, want):
        checks.append((name, got == want, got, want))

    expect("empty input has no percentile", nearest_rank([], 500), None)
    expect("empty input has no summary", latency_summary([[], []]), None)
    expect("single sample is every percentile",
           [nearest_rank([7.0], pm) for pm, _ in PERCENTILES], [7.0] * 4)
    expect("single sample supports no tail", tail_percentile(1), None)
    expect("tied samples", nearest_rank([2.0] * 50, 990), 2.0)
    expect("p50 of 1..100", nearest_rank(list(range(1, 101)), 500), 50)
    expect("p99 of 1..1000", nearest_rank(list(range(1, 1001)), 990), 990)
    expect("p99.9 of 1..1000", nearest_rank(list(range(1, 1001)), 999), 999)
    expect("1000 samples: p99 has exactly 10 beyond",
           tail_percentile(1000), (990, "p99"))
    expect("999 samples: p99 has 9 beyond, fall back to p90",
           tail_percentile(999), (900, "p90"))
    expect("10000 samples: p99.9", tail_percentile(10000), (999, "p99.9"))
    expect("20 samples: only p50", tail_percentile(20), (500, "p50"))
    expect("19 samples: no tail", tail_percentile(19), None)
    summary = latency_summary([list(range(1, 1001)), list(range(1, 2001))])
    expect("tail uses the smallest rep's percentile",
           (summary["tail_label"], summary["tail_reps"]),
           ("p99", [990, 1980]))
    expect("median of per-rep p50", summary["p50"], (500 + 1000) / 2)
    expect("quartiles of one value", quartiles([3.0]), (3.0, 3.0))
    expect("quartiles like statistics.quantiles",
           quartiles([1.0, 2.0, 3.0, 4.0]), (1.25, 3.75))
    expect("spread of one value", relative_spread([5.0]), 0.0)
    expect("regressed", verdict([1.0, 1.01, 0.99], [1.2, 1.21, 1.19],
                                "lower", 0.1), "regressed")
    expect("unchanged", verdict([1.0, 1.01, 0.99], [1.02, 1.03, 1.01],
                                "lower", 0.1), "unchanged")
    expect("improved", verdict([1.0, 1.01, 0.99], [0.8, 0.81, 0.79],
                               "lower", 0.1), "improved")
    expect("higher is better", verdict([100.0, 101.0], [80.0, 81.0],
                                       "higher", 0.1), "regressed")
    expect("unresolved", verdict([1.0, 1.5, 0.6, 1.2], [1.1, 0.7, 1.6, 1.0],
                                 "lower", 0.1), "unresolved")
    expect("wide spread but every new value better",
           verdict([1.0, 1.5, 0.9, 1.2], [0.5, 0.8, 0.6, 0.7], "lower", 0.1),
           "improved")
    expect("exact counts", verdict([5], [6], "exact", 0.1), "changed")
    expect("deterministic: 1% more asks regresses inside a 10% bound",
           verdict([1000], [1010], "lower", 0.1, True), "regressed")
    expect("deterministic: fewer asks improve",
           verdict([1000], [999], "lower", 0.1, True), "improved")
    expect("deterministic: equal is unchanged",
           verdict([0.85], [0.85], "higher", 0.1, True), "unchanged")
    expect("deterministic: a lower F-measure regresses",
           verdict([0.85], [0.84], "higher", 0.1, True), "regressed")
    expect("one value a side: within the bound",
           verdict([100.0], [96.0], "lower", 0.1), "unchanged")
    expect("one value a side: beyond the bound",
           verdict([100.0], [115.0], "lower", 0.1), "regressed")
    benchmark = load_benchmark()
    for kind in ("end_to_end", "per_layer"):
        definitions = benchmark[kind]
        metrics = {d["name"]: 1.0 for d in definitions}
        metrics["not_listed"] = 2.0
        expect(f"{kind} line has exactly the listed metrics",
               sorted(result_line(metrics, definitions)),
               sorted(d["name"] for d in definitions))

    failed = [c for c in checks if not c[1]]
    for name, _, got, want in failed:
        print(f"self-test FAILED: {name}: got {got!r}, want {want!r}")
    print(f"self-test: {len(checks) - len(failed)}/{len(checks)} passed")
    return 1 if failed else 0


def main():
    # A terminated harness raises SystemExit inside subprocess.run, which
    # kills and reaps the benchmark process before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in the harness form")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per process "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run (harness form), or also run a traced "
                             "process per workload (suite form)")
    parser.add_argument("--quick", action="store_true",
                        help="SF 10 / SF 1 sizes, one rep, CI pins")
    parser.add_argument("--out", help="results file (suite)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        if args.seconds is None:
            args.seconds = load_benchmark()["run_seconds"]
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
