"""Benchmark of orbitstat: fixed, seeded workloads through the public API.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload census-deep --seed 1 --seconds 30 --trace 0

Workloads: census-deep, dist-ldp, sample-draws, cli-mix (see workloads.py
and BENCHMARK.json for why each exists). Every timed pass runs in a fresh
worker process that first sets up; workers are started one after another
until the time budget would be exceeded. With --trace 0 the end-to-end
metrics are printed, with --trace 1 (half the budget untraced, half
traced) the per-layer ones. Gated times are in "cal", multiples of the
mean time of a calibration kernel timed between operations of the same
pass (see worker.py); plain-second figures follow on "ungated" lines. Each metric is
printed on a line of its own with its unit and sample count; the last
line is one JSON object with the keys correct, attempted, failed and
metrics. A run's record (environment, output digests, every worker's
times and per-layer figures) is also written to .perfbench/ in the
checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("census-deep", "dist-ldp", "sample-draws", "cli-mix")
# set-up is timed on at least this many worker start-ups; workers that
# only set up are added when fewer passes fit in the budget
SETUP_RUNS = 12
# a run must end within 180 s; one worker is far below this
WORKER_TIMEOUT_S = 120

UNITS = {
    "wall_cal": "cal",
    "op_cal_p50": "cal",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wall_s": "s",
    "draw_us_p50": "us",
    "draw_us_p99": "us",
    "cli_ms_p50": "ms",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bits_max"):
        return "bits"
    if name.endswith("per_draw"):
        return "1/draw"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def start_worker(args, extra):
    """Run a worker to completion: (its result, seconds from its start to
    the end of its set-up, seconds until it exited)."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    took = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - t0, took


def passes_within(args, budget, trace):
    """Pass workers, one after another, until another one would end past
    the budget (at least one): ([results], [set-up seconds])."""
    args = argparse.Namespace(**dict(vars(args), trace=trace))
    results, setups, longest = [], [], 0.0
    start = time.perf_counter()
    while True:
        result, setup, took = start_worker(args, [])
        results.append(result)
        setups.append(setup)
        longest = max(longest, took)
        if time.perf_counter() - start + longest > budget:
            return results, setups


def pass_seconds(result):
    """Time to run and check the pass's whole operation list."""
    return sum(result["op_s"].values())


def percentile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def calibrated(result, seconds):
    """seconds of a pass in units of the mean calibration kernel time of
    the same pass (see worker.py)."""
    return seconds / statistics.mean(result["cal_s"])


def end_to_end(workload, passes, setups):
    """(gated metrics, ungated figures), each name -> (value, sample count).

    Every pass runs the same operations on the same inputs in a fresh
    process. Times are medians over the passes, and latencies medians over
    every item of every pass, so a pass that ran in a busy phase of the
    machine moves them little.
    """
    walls = [calibrated(r, pass_seconds(r)) for r in passes]
    items = [calibrated(r, x) for r in passes for xs in r["latencies"].values() for x in xs]
    metrics = {
        "wall_cal": (statistics.median(walls), len(walls)),
        "op_cal_p50": (statistics.median(items or [0.0]), len(items)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), len(passes)),
        # the least start-up: a busy phase of the machine only ever slows set-up down
        "setup_s": (min(setups), len(setups)),
    }
    ungated = {"wall_s": (statistics.median(map(pass_seconds, passes)), len(passes))}
    latencies = [x for r in passes for xs in r["latencies"].values() for x in xs] or [0.0]
    if workload == "sample-draws":
        ungated["draw_us_p50"] = (1e6 * statistics.median(latencies), len(latencies))
        ungated["draw_us_p99"] = (1e6 * percentile(latencies, 99), len(latencies))
    elif workload == "cli-mix":
        ungated["cli_ms_p50"] = (1e3 * statistics.median(latencies), len(latencies))
    return metrics, ungated


def import_seconds(runs=5):
    """Median wall time of a bare `python -c "import orbitstat"`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import orbitstat"], cwd=ROOT, env=env,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(workload, traced, untraced):
    """Every per-layer metric as a mean over the traced passes."""
    n = len(traced)
    metrics = {name: (sum(r["layers"][name] for r in traced) / n, n)
               for name in traced[0]["layers"]}
    metrics["cli.import_s"] = (import_seconds() if workload == "cli-mix" else 0.0, n)
    overhead = (statistics.median(map(pass_seconds, traced))
                - statistics.median(map(pass_seconds, untraced)))
    metrics["trace.overhead_s"] = (overhead, n)
    return metrics


def digest_mismatches(passes):
    """Outputs that differ between passes of the same inputs."""
    first = passes[0]["digests"]
    return [f"{key}: output differs between passes"
            for key in sorted(first) if any(r["digests"].get(key) != first[key] for r in passes)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "orbitstat" / "__init__.py").is_file():
        print(f"error: no orbitstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        untraced, _ = passes_within(args, args.seconds / 2, 0)
        traced, setups = passes_within(args, args.seconds / 2, 1)
        passes = untraced + traced
        metrics = per_layer(args.workload, traced, untraced)
        ungated = {}
    else:
        passes, setups = passes_within(args, args.seconds, 0)
        while len(setups) < SETUP_RUNS:
            setups.append(start_worker(args, ["--setup-only"])[1])
        metrics, ungated = end_to_end(args.workload, passes, setups)
    attempted = sum(r["attempted"] for r in passes)
    failures = [f for r in passes for f in r["failures"]] + digest_mismatches(passes)
    failed = len(failures)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(passes[0]["env"], sort_keys=True))
    for key, digest in sorted(passes[0]["digests"].items()):
        print(f"digest {key} exact={digest['exact'][:16]} reals={digest['reals'][:16]}")
    for failure in failures:
        print(f"FAILED {failure}")
    for name, (value, count) in sorted(metrics.items()):
        print(f"metric {name} = {value:.6g} {UNITS.get(name) or layer_unit(name)} (n={count})")
    for name, (value, count) in sorted(ungated.items()):
        print(f"ungated {name} = {value:.6g} {UNITS[name]} (n={count})")
    print(f"ungated error_rate = {failed / attempted:.6g} ratio (n={attempted})")

    for result in passes:
        del result["latencies"]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": setups, "failures": failures, "passes": passes}
    out = ROOT / ".perfbench" / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS.get(name) or layer_unit(name)}
                    for name, (value, _) in sorted(metrics.items())},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
