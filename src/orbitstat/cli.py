"""Command-line front end: system ingestion and run orchestration.

Subcommands: census (CSV table), constants (JSON), wdist (PMF JSON),
ldp (tail-report CSV), sample (sample CSV), validate (Dold and
product-form checks). Systems are given as builtin:NAME[,key=value...]
shorthand, table:[...] inline tables, or a path to a JSON spec file.
Exit codes: 0 success, 2 rejected input, 1 internal error. main is the one
place that decides: a CliError (a bad flag, a missing spec file, malformed
JSON) and any ValueError the library raises on the system or its parameters
exit 2, the latter anchored as "spec:1:"; every other exception, failed
internal-consistency checks (AssertionError) included, exits 1.
"""

import argparse
import dataclasses
import io
import json
import math
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp

from orbitstat import asymptotics, distribution, ldp, sampler, systems
from orbitstat.census import build_census

SCHEMA = "orbitstat/1"
# --precision ceiling in bits: mpmath works at the given width, so the flag
# alone would otherwise set the size of every real in a run
MAX_PRECISION = 65536


class CliError(Exception):
    """Rejected command-line input that main reports as given (exit 2)."""


# ---------------------------------------------------------------------------
# system parsing


_SPLIT_OUTSIDE_BRACKETS = re.compile(r",(?![^\[]*\])")


def _parse_value(text):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return tuple(int(v) for v in inner.split(",")) if inner else ()
    return int(text)


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} given more than once")
        obj[key] = value
    return obj


def parse_system(spec):
    """SigmaSource from shorthand or a JSON file path.

    A path that names no file, and JSON that does not parse, raise CliError
    anchored at the spec's line. An invalid or wrongly shaped system raises
    ValueError, which main anchors at line 1.
    """
    if spec.startswith("builtin:"):
        body = spec[len("builtin:") :]
        parts = _SPLIT_OUTSIDE_BRACKETS.split(body)
        name = parts[0].strip()
        params = {}
        for part in parts[1:]:
            if "=" not in part:
                raise ValueError(f"expected key=value, got {part!r}")
            key, _, value = part.partition("=")
            key = key.strip()
            if key in params:
                raise ValueError(f"parameter {key} given more than once")
            params[key] = _parse_value(value)
        return systems.builtin_source(name, **params)
    if spec.startswith("table:"):
        values = _parse_value(spec[len("table:") :])
        if not isinstance(values, tuple):
            values = (values,)
        return systems.table_source(values)
    try:
        with open(spec, "r", encoding="utf-8") as handle:
            obj = json.load(handle, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise CliError(f"{spec}:1: no such system spec (not shorthand, not a readable file)")
    except json.JSONDecodeError as exc:
        raise CliError(f"{spec}:{exc.lineno}: {exc.msg}")
    return systems.source_from_json(obj)


# ---------------------------------------------------------------------------
# formatting


def _digits(precision):
    return max(8, int(precision * 0.30103) - 2)


def fmt_number(value, precision=128):
    """JSON-safe exact formatting: ints stay ints, rationals become 'p/q'
    strings, reals become decimal strings at the precision-implied digit
    count (never raw binary floats)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if value is None:
        return None
    with mp.workprec(precision + 16):
        m = mp.mpf(value)
        if mp.isinf(m):
            return "-inf" if m < 0 else "inf"
        return mp.nstr(m, _digits(precision))


@contextmanager
def _output(out):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            yield handle
    else:
        yield sys.stdout


def _emit(text, out):
    with _output(out) as handle:
        handle.write(text)


def _json_doc(command, config, payload):
    doc = {
        "schema": SCHEMA,
        "command": command,
        "system": config.source.describe(),
        "precision_bits": config.precision,
    }
    doc.update(payload)
    return json.dumps(doc, indent=2) + "\n"


def _emit_table(command, config, csv_text):
    """A CSV table as given, or with --format json its columns and rows."""
    if config.format == "json":
        header, *rows = (line.split(",") for line in csv_text.splitlines())
        csv_text = _json_doc(command, config, {"columns": header, "rows": rows})
    _emit(csv_text, config.out)


# ---------------------------------------------------------------------------
# configuration


# Every flag's add_argument keywords, keyed by its dest; the option is --dest
# with "_" as "-". A subcommand that does not take a flag runs with the
# default given here.
FLAGS = {
    "system": dict(required=True, help="builtin:NAME[,k=v...], table:[...], or JSON file"),
    "X": dict(type=int, help="census range"),
    "precision": dict(type=int, default=128, help=f"working precision in bits (64 to {MAX_PRECISION})"),
    "seed": dict(type=int, default=0, help="64-bit sampling seed"),
    "samples": dict(type=int, default=100000, help="sample count"),
    "epsilon": dict(type=float, action="append", help="tail epsilon (repeatable)"),
    "out": dict(help="output path (default stdout)"),
    "format": dict(choices=("csv", "json")),
    "include_empty_orbit": dict(
        action=argparse.BooleanOptionalAction,
        default=True,
        help="count the empty orbit in cumulative totals",
    ),
}


def _value(args, flag):
    """The parsed value of a flag, or its default where the subcommand does
    not take it."""
    return getattr(args, flag, FLAGS[flag].get("default"))


class RunConfig:
    def __init__(self, args):
        self.precision = _value(args, "precision")
        if self.precision < 64:
            raise CliError("--precision must be at least 64")
        if self.precision > MAX_PRECISION:
            raise CliError(f"--precision must be at most {MAX_PRECISION}")
        self.X = args.X
        if self.X is not None and self.X < 1:
            raise CliError("--X must be at least 1")
        self.seed = _value(args, "seed")
        if not 0 <= self.seed < 2**64:
            raise CliError("--seed must fit in 64 bits")
        self.samples = _value(args, "samples")
        if self.samples < 1:
            raise CliError("--samples must be at least 1")
        self.epsilons = _value(args, "epsilon") or [1.0]
        for eps in self.epsilons:
            if not math.isfinite(eps):
                raise CliError(f"--epsilon must be a finite number, got {eps}")
            if eps < 0:
                raise CliError(f"--epsilon must be at least 0, got {eps}")
        self.out = args.out
        self.format = _value(args, "format")
        self.include_empty = _value(args, "include_empty_orbit")
        self.source = parse_system(args.system)

    def census(self):
        if self.X is None:
            raise CliError("--X is required for this command")
        return build_census(self.source, self.X, precision=self.precision)


# ---------------------------------------------------------------------------
# commands


def cmd_census(config):
    buf = io.StringIO()
    config.census().write_csv(buf, include_empty=config.include_empty)
    _emit_table("census", config, buf.getvalue())


def cmd_constants(config):
    cen = None
    if config.X is not None:
        cen = config.census()
    constants = asymptotics.constants_for(config.source, config.precision, cen=cen)
    payload = {
        "B": fmt_number(constants.B, config.precision),
        "C": fmt_number(constants.C, config.precision),
        "lambda": fmt_number(constants.lam, config.precision),
        "provenance": constants.provenance,
        "tail_bounds": {
            key: fmt_number(value, config.precision)
            for key, value in constants.tail_bounds.items()
        },
        "notes": list(constants.notes),
    }
    _emit(_json_doc("constants", config, payload), config.out)


def cmd_wdist(config):
    cen = config.census()
    g = distribution.unit_weights(cen)
    bc = distribution.joint_census(g, cen.X_max, census=cen)
    pmf = distribution.w_pmf(bc)
    lemma_mean, pmf_mean = distribution.expected_w(cen, cen.X_max, bc)
    if config.format == "csv":
        lines = ["value,mass"]
        for v, m in pmf.atoms:
            lines.append(f"{fmt_number(v, config.precision)},{fmt_number(m, config.precision)}")
        _emit("\n".join(lines) + "\n", config.out)
        return
    payload = {
        "X": cen.X_max,
        "values": [fmt_number(v, config.precision) for v in pmf.support],
        "masses": [fmt_number(m, config.precision) for _, m in pmf.atoms],
        "mean": fmt_number(pmf_mean, config.precision),
        "mean_prime_sum": fmt_number(lemma_mean, config.precision),
        "variance": fmt_number(pmf.variance(), config.precision),
    }
    _emit(_json_doc("wdist", config, payload), config.out)


def cmd_ldp(config):
    cen = config.census()
    g = distribution.unit_weights(cen)
    bc = distribution.joint_census(g, cen.X_max, census=cen)
    constants = asymptotics.constants_for(config.source, config.precision, cen=cen)
    report = ldp.tail_report(
        bc,
        constants,
        [Fraction(str(e)) for e in config.epsilons],
        ldp.RateFunction.poisson(),
        precision=config.precision,
    )
    # the columns are the TailRow fields, in order
    columns = [f.name for f in dataclasses.fields(ldp.TailRow)]
    lines = [",".join(columns)]
    for row in report.rows:
        lines.append(",".join(str(fmt_number(getattr(row, c), config.precision)) for c in columns))
    _emit_table("ldp", config, "\n".join(lines) + "\n")


def cmd_sample(config):
    cen = config.census()
    # rows go out as they are drawn, so memory does not grow with --samples
    with _output(config.out) as handle:
        sampler.write_samples_csv(handle, cen, cen.X_max, config.samples, config.seed)


def cmd_validate(config):
    X = config.X if config.X is not None else 200
    if config.source.kind == "table":
        X = min(X, len(config.source.table))
    sigma = systems.sigma_table(config.source, X)
    report = systems.validate_dold(sigma[1:])
    lines = []
    if config.source.kind == "fad":
        lines.append("product-form invariants: ok (validated at construction)")
    if not report.ok:
        ell, reason = report.first_failure
        raise ValueError(f"Dold check failed at ell={ell}: {reason}")
    lines.append(f"Dold congruences: ok for all ell <= {X}")
    _emit("\n".join(lines) + "\n", config.out)


COMMANDS = {
    "census": cmd_census,
    "constants": cmd_constants,
    "wdist": cmd_wdist,
    "ldp": cmd_ldp,
    "sample": cmd_sample,
    "validate": cmd_validate,
}


# subcommand -> (help, {flag: keywords overriding its spec}) for the flags it
# reads besides --system, --X and --out, which every subcommand takes
SUBCOMMANDS = {
    "census": (
        "orbit/prime counts and Mertens sums as CSV",
        {"precision": {}, "format": {"default": "csv"}, "include_empty_orbit": {}},
    ),
    "constants": ("asymptotic constants (B, C, growth rate) as JSON", {"precision": {}}),
    "wdist": ("exact distribution of the distinct-prime statistic", {"format": {"default": "json"}}),
    "ldp": (
        "tail report: exact tails, rate values, Chebyshev bounds",
        {"precision": {}, "epsilon": {}, "format": {"default": "csv"}},
    ),
    "sample": ("seeded uniform orbit samples as CSV", {"seed": {}, "samples": {}}),
    "validate": ("Dold congruence / realizability check", {}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orbitstat",
        description="Exact orbit-decomposition statistics of discrete dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, overrides in {"system": {}, "X": {}, **flags, "out": {}}.items():
            p.add_argument("--" + flag.replace("_", "-"), **{**FLAGS[flag], **overrides})
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command](RunConfig(args))
        return 0
    except CliError as exc:
        message = str(exc)
    except ValueError as exc:  # the library refused the system or its parameters
        message = f"{args.system}:1: {exc}"
    except Exception as exc:  # internal errors -> exit 1, message only
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
