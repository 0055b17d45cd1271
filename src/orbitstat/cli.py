"""Command-line front end: system ingestion and run orchestration.

Subcommands: census (CSV table), constants (JSON), wdist (PMF JSON),
ldp (tail-report CSV), sample (sample CSV), validate (Dold and
product-form checks). Systems are given as builtin:NAME[,key=value...]
shorthand, table:[...] inline tables, or a path to a JSON spec file.
Exit codes: 0 success, 2 validation/spec failure (line-anchored message),
1 internal error.
"""

import argparse
import io
import json
import math
import re
import sys
from fractions import Fraction

import mpmath as mp

from orbitstat import asymptotics, distribution, ldp, sampler, systems
from orbitstat.census import build_census

SCHEMA = "orbitstat/1"


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


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

    Raises CliError(code 2) with a location-anchored message on any
    malformed or invalid spec.
    """
    anchor = f"{spec}:1"
    try:
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
    except ValueError as exc:
        raise CliError(f"{anchor}: {exc}") from exc
    try:
        with open(spec, "r", encoding="utf-8") as handle:
            obj = json.load(handle, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise CliError(f"{spec}:1: no such system spec (not shorthand, not a readable file)")
    except json.JSONDecodeError as exc:
        raise CliError(f"{spec}:{exc.lineno}: {exc.msg}")
    except ValueError as exc:
        raise CliError(f"{spec}:1: {exc}") from exc
    try:
        return systems.source_from_json(obj)
    except ValueError as exc:
        raise CliError(f"{spec}:1: {exc}") from exc


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


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_doc(command, config, payload):
    doc = {
        "schema": SCHEMA,
        "command": command,
        "system": config.source.describe(),
        "precision_bits": config.precision,
    }
    doc.update(payload)
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# configuration


# Every flag's add_argument keywords, keyed by its dest; the option is --dest
# with "_" as "-". A subcommand that does not take a flag runs with the
# default given here.
FLAGS = {
    "system": dict(required=True, help="builtin:NAME[,k=v...], table:[...], or JSON file"),
    "X": dict(type=int, help="census range"),
    "precision": dict(type=int, default=128, help="working precision in bits (>= 64)"),
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
        self.args = args
        self.precision = _value(args, "precision")
        if self.precision < 64:
            raise CliError("--precision must be at least 64")
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
        self.out = args.out
        self.format = _value(args, "format")
        self.include_empty = _value(args, "include_empty_orbit")
        self.source = parse_system(args.system)

    def census(self, X=None, crosscheck_to=256):
        X = self.X if X is None else X
        if X is None:
            raise CliError("--X is required for this command")
        try:
            return build_census(self.source, X, precision=self.precision, crosscheck_to=crosscheck_to)
        except ValueError as exc:
            raise CliError(f"{self.args.system}:1: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_census(config):
    cen = config.census()
    buf = io.StringIO()
    cen.write_csv(buf, include_empty=config.include_empty)
    if config.format == "json":
        rows = buf.getvalue().strip().split("\n")
        header = rows[0].split(",")
        payload = {"columns": header, "rows": [r.split(",") for r in rows[1:]]}
        _emit(_json_doc("census", config, payload), config.out)
    else:
        _emit(buf.getvalue(), config.out)
    return 0


def cmd_constants(config):
    cen = None
    if config.X is not None:
        cen = config.census()
    try:
        constants = asymptotics.constants_for(config.source, config.precision, cen=cen)
    except ValueError as exc:
        raise CliError(f"{config.args.system}:1: {exc}") from exc
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
    return 0


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
        return 0
    payload = {
        "X": cen.X_max,
        "values": [fmt_number(v, config.precision) for v in pmf.support],
        "masses": [fmt_number(m, config.precision) for _, m in pmf.atoms],
        "mean": fmt_number(pmf_mean, config.precision),
        "mean_prime_sum": fmt_number(lemma_mean, config.precision),
        "variance": fmt_number(pmf.variance(), config.precision),
    }
    _emit(_json_doc("wdist", config, payload), config.out)
    return 0


def cmd_ldp(config):
    cen = config.census()
    g = distribution.unit_weights(cen)
    bc = distribution.joint_census(g, cen.X_max, census=cen)
    try:
        constants = asymptotics.constants_for(config.source, config.precision, cen=cen)
        report = ldp.tail_report(
            bc,
            constants,
            [Fraction(str(e)) for e in config.epsilons],
            ldp.RateFunction.poisson(),
            precision=config.precision,
        )
    except ValueError as exc:
        raise CliError(f"{config.args.system}:1: {exc}") from exc
    header = "X,epsilon,threshold,log_p,normalized,rate_value,chebyshev"
    lines = [header]
    for row in report.rows:
        lines.append(
            ",".join(
                str(fmt_number(v, config.precision))
                for v in (
                    row.X,
                    row.epsilon,
                    row.threshold,
                    row.log_p,
                    row.normalized,
                    row.rate_value,
                    row.chebyshev,
                )
            )
        )
    text = "\n".join(lines) + "\n"
    if config.format == "json":
        payload = {
            "columns": header.split(","),
            "rows": [line.split(",") for line in lines[1:]],
        }
        _emit(_json_doc("ldp", config, payload), config.out)
    else:
        _emit(text, config.out)
    return 0


def cmd_sample(config):
    cen = config.census()
    buf = io.StringIO()
    sampler.write_samples_csv(buf, cen, cen.X_max, config.samples, config.seed)
    _emit(buf.getvalue(), config.out)
    return 0


def cmd_validate(config):
    X = config.X if config.X is not None else 200
    if config.source.kind == "table":
        X = min(X, len(config.source.table))
    sigma = systems.sigma_table(config.source, X)
    report = systems.validate_dold(sigma[1:])
    lines = []
    if config.source.kind == "fad":
        lines.append("product-form invariants: ok (validated at construction)")
    if report.ok:
        lines.append(f"Dold congruences: ok for all ell <= {X}")
        _emit("\n".join(lines) + "\n", config.out)
        return 0
    ell, reason = report.first_failure
    raise CliError(f"{config.args.system}:1: Dold check failed at ell={ell}: {reason}")


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(args)
        return COMMANDS[args.command](config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # internal errors -> exit 1, message only
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
