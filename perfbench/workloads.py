"""The four benchmark workloads.

A workload is a fixed list of operations built from the workload seed.
Each operation has a run step, which is timed, and a check step, which
verifies what the run produced; both count toward the workload's wall
time. Operations go through the public API of orbitstat (or, for
cli-mix, through `python -m orbitstat.cli`), which receives only the
generated inputs.
"""

import io
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import orbitstat as ob
from checks import require, split_reals

ROOT = Path(__file__).resolve().parent.parent

# the modulus of the benchmark's own Euler-product check of the table system
EULER_CHECK_MODULUS = (1 << 61) - 1
# legendre_rate must reproduce the closed-form rates to this absolute precision
RATE_TOL = 1e-9


@dataclass
class Op:
    """One operation. run() returns its output; check(output) raises on a
    wrong output. A batch op's run() returns (output, latencies), one
    latency per item, in place of one latency for the whole call."""

    name: str
    run: Callable
    check: Callable
    batch: bool = False


def random_prime_counts(seed, X):
    """Random P_ell in [0, 12), as tests/test_kernels.random_sigma_table draws them."""
    rng = random.Random(seed)
    return [0] + [rng.randrange(0, 12) for _ in range(X)]


def sigma_from_primes(P):
    """sigma_k = sum over ell | k of ell * P_ell: the table realizing P."""
    X = len(P) - 1
    sigma = [0] * (X + 1)
    for ell in range(1, X + 1):
        for k in range(ell, X + 1, ell):
            sigma[k] += ell * P[ell]
    return sigma


def euler_totals_mod(P, X, mod):
    """N_0..N_X of prod (1 - z^ell)^(-P_ell) modulo mod, by repeated
    division by (1 - z^ell); independent of the library's kernels."""
    c = [0] * (X + 1)
    c[0] = 1
    for ell in range(1, X + 1):
        for _ in range(P[ell]):
            for n in range(ell, X + 1):
                c[n] = (c[n] + c[n - ell]) % mod
    return c


BUILTINS = {
    "FF2": ("FF", {"q": 2}),
    "E32": ("E", {"p": 3, "n": 2}),
    "GA": ("GA", {}),
    "GM": ("GM", {}),
}


def builtin(key):
    name, params = BUILTINS[key]
    return ob.builtin_source(name, **params)


def cli_system(key):
    name, params = BUILTINS[key]
    return ",".join([f"builtin:{name}"] + [f"{k}={v}" for k, v in params.items()])


class Workload:
    """Base: a subclass holds its generated inputs and builds its operation
    list with ops(warmup); the warm-up list runs the same calls at small sizes."""

    name = None

    def __init__(self, seed, checker):
        self.seed = seed
        self.checker = checker


# ---------------------------------------------------------------------------
# census-deep


class CensusDeep(Workload):
    """Both N_n routes to full degree plus the CSV, for large-coefficient
    builtins and a small-coefficient generated table."""

    name = "census-deep"
    # (key, X, Lambda irrational); the table system is generated from the seed
    SYSTEMS = (("FF2", 512, False), ("E32", 512, False), ("GA", 512, False),
               ("GM", 256, True), ("table", 256, True))

    def __init__(self, seed, checker):
        super().__init__(seed, checker)
        self.table_P = random_prime_counts(seed, 256)
        self.table_source = ob.table_source(sigma_from_primes(self.table_P)[1:])

    def _source(self, key):
        return self.table_source if key == "table" else builtin(key)

    def ops(self, warmup=False):
        return [self._op(key, 24 if warmup else X, irrational, warmup)
                for key, X, irrational in self.SYSTEMS]

    def _op(self, key, X, irrational, warmup):
        source = self._source(key)

        def run():
            cen = ob.build_census(source, X, crosscheck_to=X)
            buf = io.StringIO()
            cen.write_csv(buf)
            return cen, buf.getvalue()

        def check(result):
            cen, text = result
            lines = text.split("\n")
            require(lines[0] == "n,sigma,P,N,cumN,cumP,M", f"{key}: CSV header {lines[0]!r}")
            require(len(lines) == X + 3 and lines[-1] == "", f"{key}: CSV has {len(lines)} lines")
            rows = [line.rsplit(",", 1) for line in lines[1:-1]]
            exact_cols = "\n".join(r[0] for r in rows)
            if key == "table":
                require(cen.primes[1:] == self.table_P[1 : X + 1], "table: P not recovered")
                want = euler_totals_mod(self.table_P, X, EULER_CHECK_MODULUS)
                got = [t % EULER_CHECK_MODULUS for t in cen.totals]
                require(got == want, "table: N_n disagrees with the Euler product")
            if warmup:
                return
            if irrational:
                self.checker.expect(f"{self.name}/{key}", exact_cols,
                                    [r[1] for r in rows], seeded=key == "table")
            else:
                self.checker.expect(f"{self.name}/{key}", text)

        return Op(key, run, check)


# ---------------------------------------------------------------------------
# dist-ldp


class DistLdp(Workload):
    """The wdist and ldp call sequences for each builtin, plus a
    subset-weight census with a non-Poisson rho."""

    name = "dist-ldp"
    X = 60
    EPSILONS = (Fraction(1, 2), Fraction(1))
    RATE_POINTS = (Fraction(1, 2), Fraction(3, 2))

    def ops(self, warmup=False):
        X = 12 if warmup else self.X
        return [self._unit_op(key, X, warmup) for key in BUILTINS] + [self._subset_op(X, warmup)]

    def _unit_op(self, key, X, warmup):
        source = builtin(key)

        def run():
            cen = ob.build_census(source, X)
            g = ob.unit_weights(cen)
            bc = ob.joint_census(g, X, census=cen)
            pmf = ob.w_pmf(bc)
            means = ob.expected_w(cen, X)
            constants = ob.constants_for(source, 128, cen=cen)
            report = ob.tail_report(bc, constants, list(self.EPSILONS), ob.RateFunction.poisson())
            rho = ob.rho_measure(g, cen, X)
            rates = [(ob.legendre_rate(rho, x), ob.poisson_rate(x)) for x in self.RATE_POINTS]
            return pmf, means, report, rates

        def check(result):
            pmf, means, report, rates = result
            require(pmf.is_probability(), f"{key}: PMF does not sum to 1")
            require(means[0] == means[1] == pmf.mean(), f"{key}: E[W] routes disagree")
            for numeric, closed in rates:
                require(abs(numeric - closed) <= RATE_TOL,
                        f"{key}: legendre_rate {numeric} != poisson_rate {closed}")
            if warmup:
                return
            atoms = "\n".join(f"{v},{m}" for v, m in pmf.atoms)
            rows = [(r.X, r.epsilon, r.threshold, r.log_p, r.normalized, r.rate_value, r.chebyshev)
                    for r in report.rows]
            self.checker.expect(f"{self.name}/{key}", f"{atoms}\nmean={means[0]}",
                                [v for row in rows for v in row])

        return Op(key, run, check)

    def _subset_op(self, X, warmup):
        source = builtin("FF2")
        scale = Fraction(2, 3)

        def run():
            cen = ob.build_census(source, X)
            g = ob.subset_weights(cen, lambda ell: ell % 2 == 0, scale)
            pmf = ob.w_pmf(ob.joint_census(g, X, census=cen))
            rho = ob.rho_measure(g, cen, X)
            r = rho.mass_at(scale)
            rates = [(ob.legendre_rate(rho, x), ob.subset_rate(x, scale, r))
                     for x in self.RATE_POINTS]
            return pmf, rho, rates

        def check(result):
            pmf, rho, rates = result
            require(pmf.is_probability(), "subset: PMF does not sum to 1")
            require(rho.support == (0, scale), f"subset: rho support {rho.support}")
            for numeric, closed in rates:
                require(abs(numeric - closed) <= RATE_TOL,
                        f"subset: legendre_rate {numeric} != subset_rate {closed}")
            if warmup:
                return
            atoms = "\n".join(f"{v},{m}" for v, m in pmf.atoms + rho.atoms)
            self.checker.expect(f"{self.name}/subset", atoms)

        return Op("subset", run, check)


# ---------------------------------------------------------------------------
# sample-draws


class SampleDraws(Workload):
    """A per-draw interpreter loop: long draws (FF(2), X=200) and short
    draws (E(3,2), X=60), each on a fresh RandomStream(seed, i).

    Each system's draws run as BATCHES operations of consecutive indices, so
    the calibration kernel is timed often within a pass.
    """

    name = "sample-draws"
    SYSTEMS = (("FF2", 200, 5000), ("E32", 60, 10000))
    BATCHES = 10

    def ops(self, warmup=False):
        out = []
        for key, X, draws in self.SYSTEMS:
            state = {}
            out.append(self._tables_op(key, X, state, warmup))
            size = 2 if warmup else draws // self.BATCHES
            for b in range(self.BATCHES):
                out.append(self._draws_op(key, X, range(b * size, (b + 1) * size), state, warmup))
        return out

    def _tables_op(self, key, X, state, warmup):
        """The census and sampler tables; no latency items."""
        source = builtin(key)

        def run():
            cen = ob.build_census(source, X)
            return (cen, ob.sampler_for(cen, X)), []

        def check(result):
            cen, sampler = result
            require(sampler.grand_total == cen.count_orbits(X), f"{key}: sampler total != N(X)")
            state["census"] = cen
            if not warmup:
                self.checker.expect(f"{self.name}/{key}.tables", "\n".join(map(str, cen.totals)))

        return Op(f"{key}.tables", run, check, batch=True)

    def _draws_op(self, key, X, indices, state, warmup):
        name = f"{key}.draws{indices.start}"
        seed = self.seed

        def run():
            cen = state["census"]
            clock = time.perf_counter
            samples = []
            latencies = []
            for i in indices:
                t0 = clock()
                s = ob.sample_orbit(cen, X, ob.RandomStream(seed, i))
                latencies.append(clock() - t0)
                samples.append(s)
            return samples, latencies

        def check(samples):
            P = state["census"].primes
            rows = []
            for i, s in zip(indices, samples):
                require(0 <= s.n <= X, f"{key}: draw {i} has n={s.n}")
                require(sum(ell * k for ell, k, _ in s.profile) == s.n,
                        f"{key}: draw {i} profile does not sum to n")
                for ell, k, d in s.profile:
                    require(1 <= d <= min(k, P[ell]), f"{key}: draw {i} has d={d} at ell={ell}")
                rows.append(f"{i},{s.n},{s.W},{s.profile}")
            if not warmup:
                self.checker.expect(f"{self.name}/{name}", "\n".join(rows), seeded=True)

        return Op(name, run, check, batch=True)


# ---------------------------------------------------------------------------
# cli-mix

SUBCOMMANDS = ("census", "constants", "wdist", "ldp", "sample", "validate")


class CliMix(Workload):
    """Every subcommand for every builtin, each as its own subprocess,
    run one at a time."""

    name = "cli-mix"
    ARGS = {
        "census": ["--X", "200"],
        "constants": [],
        "wdist": ["--X", "40"],
        "ldp": ["--X", "40"],
        "sample": ["--X", "40", "--samples", "2000"],
        "validate": ["--X", "200"],
    }

    def __init__(self, seed, checker):
        super().__init__(seed, checker)
        self.output_bytes = {}
        self.primes = {key: ob.prime_counts(ob.sigma_table(builtin(key), 40)) for key in BUILTINS}

    def ops(self, warmup=False):
        if warmup:
            return [self._op("FF2", "validate", ["--X", "5"], warmup)]
        return [self._op(key, sub, self.ARGS[sub], warmup)
                for key in BUILTINS for sub in SUBCOMMANDS]

    def _op(self, key, sub, extra, warmup):
        argv = [sys.executable, "-m", "orbitstat.cli", sub, "--system", cli_system(key), *extra]
        if sub == "sample":
            argv += ["--seed", str(self.seed)]

        def run():
            return subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=120)

        def check(proc):
            err = proc.stderr.decode("utf-8", "replace").strip()
            require(proc.returncode == 0, f"{key} {sub}: exit {proc.returncode}: {err[-300:]}")
            self.output_bytes[(key, sub)] = len(proc.stdout)
            text = proc.stdout.decode("utf-8")
            if sub == "sample":
                self._check_samples(key, text)
            if not warmup:
                skeleton, reals = split_reals(text)
                self.checker.expect(f"{self.name}/{key}.{sub}", skeleton, reals,
                                    seeded=sub == "sample")

        return Op(f"{key}.{sub}", run, check)

    def _check_samples(self, key, text):
        lines = text.split("\n")
        require(lines[0] == "index,n,W,profile" and lines[-1] == "",
                f"{key} sample: malformed CSV")
        P = self.primes[key]
        for i, line in enumerate(lines[1:-1]):
            index, n, W, profile = line.split(",", 3)
            n = int(n)
            require(int(index) == i and 0 <= n <= 40 and profile[0] == profile[-1] == '"',
                    f"{key} sample: row {i} malformed")
            profile = json.loads(profile[1:-1])
            require(sum(ell * k for ell, k, _ in profile) == n,
                    f"{key} sample: row {i} profile does not sum to n")
            require(all(1 <= d <= min(k, P[ell]) for ell, k, d in profile),
                    f"{key} sample: row {i} has an impossible distinct count")
            require(int(W) == sum(d for _, _, d in profile), f"{key} sample: row {i} W")
        require(len(lines) == 2002, f"{key} sample: {len(lines) - 2} rows, want 2000")

    def layer_metrics(self, latencies):
        """cli.<subcommand>.wall_s (summed over the builtins) and the output size."""
        out = {"cli.output_bytes": sum(self.output_bytes.values())}
        for sub in SUBCOMMANDS:
            out[f"cli.{sub}.wall_s"] = sum(latencies.get(f"{key}.{sub}", [0.0])[0]
                                           for key in BUILTINS)
        return out


WORKLOADS = {cls.name: cls for cls in (CensusDeep, DistLdp, SampleDraws, CliMix)}
