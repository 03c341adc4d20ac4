#!/usr/bin/env python3
"""Performance benchmark of the Opera simulator (see benchmark/README.md).

Builds benchmark/opera_perf (a standalone CMake project over the repository
sources), runs workloads in fresh processes, checks that their simulated
outputs are correct and deterministic, and reports every metric by name
with its unit.

One workload, as a regression gate runs it (the last line of stdout is one
JSON object: correct, attempted, failed, metrics):

    python3 benchmark/run.py --workload opera_websearch --seed 1 --seconds 12 --trace 0

The whole benchmark, R=5 round-robin repetitions of every workload:

    python3 benchmark/run.py [--seed N] [--trace] [--sets 2] [--smoke]

Results go to build-benchmark/results/.
"""
import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / "build-benchmark"
RESULTS_DIR = BUILD_DIR / "results"
GOLDENS_PATH = ROOT / "benchmark" / "goldens.json"

REPS = 5              # repetitions per workload in a full benchmark set
MIN_REPS = 2          # fresh processes per workload in a --workload run
PROCESS_TIMEOUT_S = 150
# Absolute slack on top of the relative bound, for metrics whose median
# is so small that the relative bound is below timer and allocator noise.
ABS_SLACK = {"run_s": 0.05, "setup_s": 0.05, "peak_rss_mb": 2.0}
# The fields of a run's simulated summary that every repetition, and the
# traced run, must reproduce exactly.
SUMMARY_KEYS = ("completed", "fct_p50_us", "fct_p99_us")
T4_WORKLOAD = "opera_websearch_t4"


class BenchmarkError(Exception):
    pass


# ---------------------------------------------------------------------------
# Pure functions (unit-tested in benchmark/test_run.py).
# ---------------------------------------------------------------------------
def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_by(base, new, better):
    """How much worse `new` is than `base`, in the metric's own unit
    (negative when it is better)."""
    return new - base if better == "lower" else base - new


def within_bound(base, new, bound, better, slack=0.0):
    """True when `new` is no worse than `base` by more than bound * |base|
    or the absolute slack, whichever is larger."""
    return worse_by(base, new, better) <= max(bound * abs(base), slack)


def compare_sets(first, second, metrics):
    """Median-to-median drift between two sets of runs.

    `first` and `second` map workload -> metric -> median; `metrics` is the
    end_to_end list from BENCHMARK.json. Returns one row per (workload,
    metric) pair present in both sets."""
    rows = []
    for workload in sorted(set(first) & set(second)):
        for m in metrics:
            name = m["name"]
            if name not in first[workload] or name not in second[workload]:
                continue
            a, b = first[workload][name], second[workload][name]
            drift = worse_by(a, b, m["better"]) / abs(a) if a else 0.0
            rows.append({
                "workload": workload, "metric": name, "first": a, "second": b,
                "drift": drift, "bound": m["bound"],
                "ok": within_bound(a, b, m["bound"], m["better"],
                                   ABS_SLACK.get(name, 0.0)),
            })
    return rows


def thread_mismatch(run, t1_reference):
    """The sharded engine's contract: a run's digest equals the threads=1
    digest of the same workload and seed."""
    if run["digest"] == t1_reference["digest"]:
        return []
    return [f"{run['workload']}: threads={run['threads']} digest {run['digest']} "
            f"!= threads=1 digest {t1_reference['digest']}"]


def summary_of(run):
    return {key: run["summary"][key] for key in SUMMARY_KEYS}


def check_runs(runs):
    """Determinism and sanity checks over the repetitions of one workload:
    every run has the same simulated summary and fingerprint digest, and no
    run completes more bytes than it submitted. Returns error strings."""
    errors = []
    first = runs[0]
    for i, run in enumerate(runs):
        s = run["summary"]
        if s["completed_bytes"] > s["submitted_bytes"]:
            errors.append(f"{run['workload']} run {i}: completed "
                          f"{s['completed_bytes']} bytes of {s['submitted_bytes']} submitted")
        if s["completed"] > s["flows"]:
            errors.append(f"{run['workload']} run {i}: {s['completed']} of "
                          f"{s['flows']} flows completed")
        if i == 0:
            continue
        if summary_of(run) != summary_of(first):
            errors.append(f"{run['workload']} run {i}: summary {summary_of(run)} "
                          f"differs from run 0 {summary_of(first)}")
        if run["digest"] != first["digest"]:
            errors.append(f"{run['workload']} run {i}: digest {run['digest']} "
                          f"differs from run 0 {first['digest']}")
    return errors


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover. Returns {span id: seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start_s"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_s"]):
            lo, hi = max(c["start_s"], cursor), min(c["end_s"], s["end_s"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end_s"] - s["start_s"]) - covered
    return out


def layer_self_times(spans):
    """Self time summed per layer (the span name up to its first dot)."""
    own = self_times(spans)
    layers = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own[s["id"]]
    return layers


def layer_metrics(run, spans, untraced_run_s, speedups):
    """Per-layer metrics of one traced run, from its spans and counters.

    `untraced_run_s` is the untraced median run_s of the same workload;
    `speedups` is thread_speedups() for the threads=4 workload and empty
    elsewhere. A metric whose layer
    the workload does not exercise reads 0. Wall times are the spans' own,
    so they exclude the speed probe's bursts (spans of their own)."""
    own = self_times(spans)

    def durations(name):
        return [s["end_s"] - s["start_s"] for s in spans if s["name"] == name]

    def own_total(name):
        return sum(own[s["id"]] for s in spans if s["name"] == name)

    in_slice, boundary = durations("core.in_slice"), durations("core.boundary")
    events = run["counters"]["sim.events"]
    slice_tables = durations("topo.slice_routes")
    out = {
        "sim.events": events,
        # Stepped runs time the in-slice work alone; the others only the whole run.
        "sim.ns_per_event": (sum(in_slice) if in_slice else own_total("core.run"))
                            / events * 1e9,
        "sim.speedup_t2": speedups.get(2, 0.0),
        "sim.speedup_t4": speedups.get(4, 0.0),
        "core.boundary_s": sum(boundary),
        "core.in_slice_s": sum(in_slice),
        "core.slices": len(in_slice),
        "core.slice_max_ms": max((a + b for a, b in zip(in_slice, boundary)),
                                 default=0.0) * 1e3,
        "core.submit_s": own_total("core.submit"),
        "topo.construct_s": sum(durations("topo.construct")),
        "topo.slice_table_ms": (statistics.fmean(slice_tables) * 1e3
                                if slice_tables else 0.0),
        "fluid.ns_per_flow": (own_total("core.run") / run["summary"]["flows"] * 1e9
                              if run["engine"] == "fluid" else 0.0),
        "workload.gen_s": run["gen_s"],
        "workload.flows": run["summary"]["flows"],
        "exp.trace_overhead_pct": (run["run_s"] - untraced_run_s) / untraced_run_s * 100,
    }
    for name, value in run["counters"].items():
        out.setdefault(name, value)
    return out


def thread_speedups(t1_runs, t2_run, t4_runs):
    """threads=1 wall time over threads=N wall time, medians where there
    are several runs. Wall time, not run_s: run_s is normalised by a speed
    probe that runs as many threads as the workload, so its scale differs
    between thread counts."""
    t1 = statistics.median(r["run_wall_s"] for r in t1_runs)
    return {2: t1 / t2_run["run_wall_s"],
            4: t1 / statistics.median(r["run_wall_s"] for r in t4_runs)}


def golden_drift(goldens, workload, run):
    """Fields of a seed-1 run that differ from the recorded golden."""
    golden = goldens.get(workload)
    if golden is None:
        return [f"{workload}: no golden recorded"]
    current = golden_of(run)
    return [f"{workload}: {key} {golden.get(key)} -> {current[key]}"
            for key in current if golden.get(key) != current[key]]


def golden_of(run):
    s = run["summary"]
    return {"flows": s["flows"], "completed": s["completed"],
            "fct_p50_us": s["fct_p50_us"], "fct_p99_us": s["fct_p99_us"],
            "goodput_gbps": s["goodput_gbps"], "digest": run["digest"]}


# ---------------------------------------------------------------------------
# Building and running opera_perf.
# ---------------------------------------------------------------------------
def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchmarkError(f"no repository sources under {ROOT}; "
                             "the benchmark builds the simulator from source")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD_DIR), "--target", "opera_perf", "-j", jobs]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchmarkError("build failed: " + " ".join(cmd))
    return BUILD_DIR / "opera_perf"


def run_once(binary, workload, seed, smoke=False, threads=0, spans_path=None):
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}"]
    if smoke:
        cmd.append("--smoke")
    if threads:
        cmd.append(f"--threads={threads}")
    if spans_path:
        cmd.append(f"--spans={spans_path}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchmarkError(f"{workload}: timed out after {PROCESS_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload}: opera_perf exited {proc.returncode}: "
                             f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def end_to_end(runs):
    """Every end-to-end sample of a workload's runs: metric -> list."""
    return {
        "run_s": [r["run_s"] for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "fct_p50_us": [r["summary"]["fct_p50_us"] for r in runs],
        "fct_p99_us": [r["summary"]["fct_p99_us"] for r in runs],
    }


def medians(samples):
    return {name: statistics.median(values) for name, values in samples.items()}


class Bench:
    """One benchmark invocation: the built driver plus its settings."""

    def __init__(self, spec, seed, smoke):
        self.spec = spec
        self.seed = seed
        self.smoke = smoke
        self.binary = build()
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        self.goldens = (json.loads(GOLDENS_PATH.read_text())
                        if GOLDENS_PATH.is_file() else {})

    def run(self, workload, smoke=None, **kwargs):
        return run_once(self.binary, workload, self.seed,
                        self.smoke if smoke is None else smoke, **kwargs)

    def check(self, workload, runs, t1_reference=None):
        """Failed checks of one workload's runs; drift from the seed-1
        golden is printed as a warning, not returned."""
        errors = check_runs(runs)
        if t1_reference is not None:
            errors += thread_mismatch(runs[0], t1_reference)
        drift = []
        if self.seed == 1 and not self.smoke:
            drift = golden_drift(self.goldens, workload, runs[0])
        for line in drift:
            print(f"SEMANTIC CHANGE vs seed-1 golden: {line}", file=sys.stderr)
        return errors

    def trace(self, workload, untraced_runs, speedups):
        """One traced run: per-layer metrics, after checking that it
        reproduces the untraced simulated summary."""
        path = RESULTS_DIR / f"spans-{workload}-seed{self.seed}.jsonl"
        traced = self.run(workload, spans_path=path)
        errors = []
        if summary_of(traced) != summary_of(untraced_runs[0]):
            errors.append(f"{workload}: traced summary {summary_of(traced)} != "
                          f"untraced {summary_of(untraced_runs[0])}")
        spans = read_spans(path)
        untraced = statistics.median(r["run_s"] for r in untraced_runs)
        return {"per_layer": layer_metrics(traced, spans, untraced, speedups),
                "layer_self_s": layer_self_times(spans), "traced_run": traced}, errors


def print_table(title, rows):
    print(title)
    for row in rows:
        print("  " + row)


def format_stats(name, unit, values):
    q1, med, q3 = quartiles(values)
    return (f"{name:<16} {med:>14.6g} {unit:<6} q1 {q1:<11.6g} q3 {q3:<11.6g} "
            f"n={len(values)}")


# ---------------------------------------------------------------------------
# Modes.
# ---------------------------------------------------------------------------
def gate_one(bench, workload, seconds, trace):
    """One workload for --seconds (at least MIN_REPS fresh processes),
    printing the result line a regression gate reads."""
    units = {m["name"]: m["unit"] for m in bench.spec["end_to_end"] + bench.spec["per_layer"]}
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_REPS or time.monotonic() - start < seconds:
        runs.append(bench.run(workload))
    errors = bench.check(workload, runs)
    if workload == T4_WORKLOAD and not trace:
        # The threads=1 check at 1/20 size: the same seed's sharded run,
        # for a fraction of a full threads=1 run's time.
        errors += thread_mismatch(bench.run(workload, smoke=True),
                                  bench.run(workload, smoke=True, threads=1))
    samples = end_to_end(runs)
    result = {"workload": workload, "seed": bench.seed, "runs": runs, "samples": samples}
    if trace:
        speedups = {}
        if workload == T4_WORKLOAD:
            t1 = bench.run(workload, threads=1)
            errors += thread_mismatch(runs[0], t1)
            speedups = thread_speedups([t1], bench.run(workload, threads=2), runs)
        traced, trace_errors = bench.trace(workload, runs, speedups)
        errors += trace_errors
        result.update(traced)
        metrics = traced["per_layer"]
        names = [m["name"] for m in bench.spec["per_layer"]]
    else:
        metrics = medians(samples)
        names = [m["name"] for m in bench.spec["end_to_end"]]
    for name in names:
        if name in samples:
            print(format_stats(name, units[name], samples[name]))
        else:
            print(f"{name:<24} {metrics[name]:>14.6g} {units[name]}")
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    result["errors"] = errors
    tag = "trace" if trace else "timed"
    (RESULTS_DIR / f"{workload}-seed{bench.seed}-{tag}.json").write_text(
        json.dumps(result, indent=1))
    line = {
        "correct": not errors,
        "attempted": sum(r["summary"]["flows"] for r in runs),
        "failed": sum(r["summary"]["flows"] - r["summary"]["completed"] for r in runs),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(line))
    return 0 if not errors else 1


def full_set(bench, workloads, reps, trace):
    """R round-robin repetitions of every workload (the first workload
    rotates each repetition), then the checks and optional trace pass."""
    runs = {w: [] for w in workloads}
    for rep in range(reps):
        order = workloads[rep % len(workloads):] + workloads[:rep % len(workloads)]
        for w in order:
            runs[w].append(bench.run(w))
            print(f"  rep {rep + 1}/{reps} {w}: run_s {runs[w][-1]['run_s']:.3f}",
                  file=sys.stderr)
    errors = []
    for w in workloads:
        reference = runs.get("opera_websearch", [None])[0] if w == T4_WORKLOAD else None
        errors += bench.check(w, runs[w], reference)
    units = {m["name"]: m["unit"] for m in bench.spec["end_to_end"]}
    result = {"seed": bench.seed, "smoke": bench.smoke, "reps": reps, "workloads": {}}
    for w in workloads:
        samples = end_to_end(runs[w])
        result["workloads"][w] = {"samples": samples, "medians": medians(samples),
                                  "runs": runs[w]}
        incomplete = runs[w][0]["summary"]["flows"] - runs[w][0]["summary"]["completed"]
        print_table(f"{w}  (flows {runs[w][0]['summary']['flows']}, incomplete "
                    f"{incomplete}, fct samples {runs[w][0]['summary']['fct_count']})",
                    [format_stats(n, units[n], samples[n]) for n in units])
    if trace:
        for w in workloads:
            speedups = {}
            if w == T4_WORKLOAD and runs.get("opera_websearch"):
                speedups = thread_speedups(runs["opera_websearch"],
                                           bench.run(w, threads=2), runs[w])
            traced, trace_errors = bench.trace(w, runs[w], speedups)
            errors += trace_errors
            result["workloads"][w].update(traced)
            print_table(f"{w} trace",
                        [f"{k:<24} {v:.6g}" for k, v in traced["per_layer"].items()] +
                        [f"self {k:<19} {v:.6g} s"
                         for k, v in sorted(traced["layer_self_s"].items())])
    result["errors"] = errors
    return result, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload for --seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="add a traced run and report per-layer metrics")
    parser.add_argument("--sets", type=int, default=1,
                        help="full benchmark sets to run; 2 prints set-to-set drift")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~1/20 size, twice, checks only")
    parser.add_argument("--record-goldens", action="store_true",
                        help="write the seed-1 simulated summaries to benchmark/goldens.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    try:
        bench = Bench(spec, args.seed, args.smoke)
        if args.workload:
            if args.workload not in workloads:
                raise BenchmarkError(f"unknown workload {args.workload!r}")
            return gate_one(bench, args.workload, args.seconds, args.trace)

        sets, errors = [], []
        for i in range(1 if args.smoke else args.sets):
            # Smoke runs twice so the determinism check has runs to compare.
            result, set_errors = full_set(bench, workloads, 2 if args.smoke else REPS,
                                          args.trace and not args.smoke)
            (RESULTS_DIR / f"set{i + 1}-seed{args.seed}.json").write_text(
                json.dumps(result, indent=1))
            sets.append(result)
            errors += set_errors
        if len(sets) == 2:
            rows = compare_sets(*[{w: r["medians"] for w, r in s["workloads"].items()}
                                  for s in sets], spec["end_to_end"])
            print("set-to-set drift (worse is positive)")
            for row in rows:
                print(f"  {row['workload']:<20} {row['metric']:<13} {row['first']:>12.6g} "
                      f"{row['second']:>12.6g} {row['drift'] * 100:>+7.2f}% "
                      f"bound {row['bound'] * 100:.0f}% {'ok' if row['ok'] else 'FAIL'}")
                if not row["ok"]:
                    errors.append(f"{row['workload']} {row['metric']} drifted "
                                  f"{row['drift'] * 100:+.2f}% between sets")
        if args.record_goldens and args.seed == 1 and not args.smoke:
            goldens = {w: golden_of(r["runs"][0]) for w, r in sets[0]["workloads"].items()}
            GOLDENS_PATH.write_text(json.dumps(goldens, indent=1) + "\n")
        for e in errors:
            print(f"FAIL {e}", file=sys.stderr)
        return 1 if errors else 0
    except BenchmarkError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
