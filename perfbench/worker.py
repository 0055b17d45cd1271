"""One set-up and at most one timed pass of a workload, in a fresh process.

Started by run.py, never by hand. It sets up (imports orbitstat from the
checkout's src/, generates the seeded inputs, loads the reference digests
and runs every operation once at a small size as a warm-up), notes the
moment set-up ended, then runs the workload's operation list once. The
result goes to stdout as one JSON line.

Each timed pass gets a process of its own, so nothing a pass leaves in
memory (a cache, a memo) can make a later pass faster than a one-shot
user would see. With --setup-only it stops after set-up. With --trace 1
the pass runs with the tracer installed.
"""

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def import_orbitstat():
    """Import orbitstat from the checkout's src/, and make child processes
    (the CLI calls of cli-mix) import it from there too."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import orbitstat

    home = (ROOT / "src" / "orbitstat").resolve()
    if Path(orbitstat.__file__).resolve().parent != home:
        raise SystemExit(f"orbitstat imported from {orbitstat.__file__}, not from {home}")
    return orbitstat


def environment(seed):
    import mpmath
    import numpy

    import orbitstat

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "backend": orbitstat.kernels.BACKEND,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


# Calibration kernels of the benchmark's own, timed between every two
# operations. A shared machine runs everything up to twice as slowly in busy
# phases that last from seconds to minutes; run.py divides each pass's times
# by the mean kernel time of that pass, so the phase a pass ran in cancels.
# The kernel does the kind of work the operations do: big-integer
# multiply-adds for operations in this process, and the start of a Python
# process that imports a few standard modules for cli-mix, whose operations
# are mostly the start-up of a Python process.
CAL_OPERAND = 3**2000
CAL_ITERATIONS = 300
STARTUP_KERNEL = "import decimal, fractions, json"


def bigint_seconds(repeats=3):
    """Mean time of `repeats` runs of the big-integer kernel."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        acc = 0
        for i in range(CAL_ITERATIONS):
            acc += CAL_OPERAND * (CAL_OPERAND + i)
    return (time.perf_counter() - t0) / repeats


def startup_seconds():
    """Time of one Python process that imports a few standard modules."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_KERNEL], check=True, timeout=60)
    return time.perf_counter() - t0


class Repetition:
    """Times, per-item latencies and failures of one pass over the ops."""

    def __init__(self):
        self.wall = 0.0
        self.latencies = {}  # op name -> seconds of each of its items
        self.op_seconds = {}  # op name -> seconds in run() and check()
        self.cal = []  # seconds of the calibration kernel, timed between ops
        self.attempted = 0
        self.failures = []


def run_ops(ops, tracer=None, calibration=None):
    """One pass. An operation whose run raises, or whose check fails, is
    counted as failed; the time of a run that returned is kept either way.
    A calibration kernel, if given, is timed before and after each op."""
    rep = Repetition()
    clock = time.perf_counter
    gc.collect()
    start = clock()
    if calibration:
        rep.cal.append(calibration())
    for op in ops:
        rep.attempted += 1
        ran = False
        t0 = clock()
        try:
            output = op.run() if tracer is None else tracer.span(f"op.{op.name}", op.run)
            elapsed = clock() - t0
            ran = True
            output, items = output if op.batch else (output, [elapsed])
            rep.latencies[op.name] = items
            op.check(output)
        except Exception as exc:  # any failure of the library or of a check counts
            rep.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        if ran:
            rep.op_seconds[op.name] = clock() - t0
        if calibration:
            rep.cal.append(calibration())
    rep.wall = clock() - start
    return rep


def peak_rss_mb(workload_name):
    """Peak resident memory so far: of this process, or for cli-mix of its
    largest child."""
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def per_layer(workload, tracer, rep):
    """Every per-layer metric of one traced pass; metrics of layers this
    workload does not run are 0."""
    from tracing import EXTREMES, SUMMED, TRACED
    from workloads import SUBCOMMANDS

    layers = tracer.layer_totals()
    metrics = {}
    for module_name, attr in TRACED:
        self_s, calls = layers.get(f"{module_name}.{attr}", (0.0, 0))
        metrics[f"{module_name}.{attr}.self_s"] = self_s
        metrics[f"{module_name}.{attr}.calls"] = calls
    for key in SUMMED:
        metrics[key] = tracer.counts[key]
    for key in EXTREMES:
        metrics[key] = tracer.extremes.get(key, 0)
    draws = metrics["sampler.OrbitSampler.sample.calls"]
    randbelow = metrics.pop("sampler.randbelow")
    metrics["sampler.draws"] = draws
    metrics["sampler.randbelow_per_draw"] = randbelow / draws if draws else 0.0
    metrics.update({f"cli.{sub}.wall_s": 0.0 for sub in SUBCOMMANDS})
    metrics["cli.output_bytes"] = 0
    if workload.name == "cli-mix":
        metrics.update(workload.layer_metrics(rep.latencies))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_orbitstat()
    from checks import Checker
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Checker(args.seed))
    calibration = startup_seconds if args.workload == "cli-mix" else bigint_seconds
    # a wrong output is counted by the timed pass, not here
    warmup = run_ops(workload.ops(warmup=True))
    ready = time.perf_counter()
    for failure in warmup.failures:
        print(f"warm-up: {failure}", file=sys.stderr)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        rep = run_ops(workload.ops(), tracer, calibration)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "ready": ready,
        "peak_rss_mb": peak_rss_mb(workload.name),
        "env": environment(args.seed),
        "attempted": rep.attempted,
        "failures": rep.failures,
        "digests": workload.checker.digests,
        "op_s": rep.op_seconds,
        "cal_s": rep.cal,
        "latencies": rep.latencies,
    }
    if tracer is not None:
        result["layers"] = per_layer(workload, tracer, rep)
        result["by_op"] = {f"{op} {name}": value
                           for (op, name), value in tracer.layer_totals(by_op=True).items()}
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
