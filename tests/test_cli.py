"""End-to-end CLI behavior through main(argv): exit codes, anchored
diagnostics, schema-tagged JSON, and deterministic outputs."""

import io
import json
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitstat import OrbitCensus, asymptotics, build_census, builtin_source, cli, distribution, kernels, polyops, systems, write_samples_csv
from orbitstat.cli import main

import oracles
from oracles import gm_blocks, seeded_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- happy paths -----------------------------------------------------------------


def test_constants_elliptic_json(capsys):
    code, out, err = run(capsys, "constants", "--system", "builtin:E,p=3,n=2")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema"] == "orbitstat/1"
    assert doc["command"] == "constants"
    assert doc["system"] == "builtin:E,n=2,p=3"
    assert doc["precision_bits"] == 128
    assert doc["B"] == "5/8"
    assert doc["lambda"] == "4"
    assert doc["C"].startswith("0.720312717")
    assert doc["provenance"]["B"] == "exact-closed-form"
    assert "C" in doc["tail_bounds"]


def test_constants_ff_and_periodic(capsys, tmp_path):
    code, out, _ = run(capsys, "constants", "--system", "builtin:FF,q=2")
    assert code == 0
    doc = json.loads(out)
    assert doc["B"] == "1" and doc["C"] == "2" and doc["lambda"] == "2"

    code, out, _ = run(capsys, "constants", "--system", "builtin:periodic,values=[1,3]")
    assert code == 0
    doc = json.loads(out)
    assert doc["B"] == "2" and doc["C"] == "1/2" and doc["lambda"] == "1"
    # the system field is shorthand that --system reads back
    assert doc["system"] == "builtin:periodic,values=[1,3]"
    assert main(["constants", "--system", doc["system"]]) == 0
    assert capsys.readouterr().out == out
    # the same product form written as JSON: exact constants, not a C fitted
    # against the Lambda > 1 growth law, at any --X
    spec = tmp_path / "periodic.json"
    spec.write_text(json.dumps({"type": "fad", "r": {"values": [1, 3]}}))
    for extra in ((), ("--X", "200")):
        code, out, err = run(capsys, "constants", "--system", str(spec), *extra)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert (doc["B"], doc["C"], doc["lambda"]) == ("2", "1/2", "1")
        assert doc["provenance"] == dict.fromkeys(("B", "C", "lambda"), "exact-closed-form")


def test_census_csv(capsys):
    code, out, err = run(capsys, "census", "--system", "builtin:FF,q=2", "--X", "6")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "n,sigma,P,N,cumN,cumP,M"
    assert len(lines) == 8
    n2 = lines[3].split(",")
    assert n2[:6] == ["2", "4", "1", "4", "7", "3"]
    # cumN(6) = 127 for the full shift on two symbols
    assert lines[7].split(",")[4] == "127"


def test_census_json_and_empty_orbit_flag(capsys):
    code, out, _ = run(
        capsys, "census", "--system", "builtin:FF,q=2", "--X", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"][0] == "n"
    assert len(doc["rows"]) == 5

    code, out, _ = run(
        capsys, "census", "--system", "builtin:FF,q=2", "--X", "4", "--no-include-empty-orbit"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1].split(",")[0] == "1"
    assert len(lines) == 5


def test_wdist_json(capsys):
    code, out, err = run(capsys, "wdist", "--system", "builtin:FF,q=2", "--X", "2")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["values"] == ["0", "1", "2"]
    assert doc["masses"] == ["1/7", "5/7", "1/7"]
    assert doc["mean"] == "1" and doc["mean_prime_sum"] == "1"
    assert doc["variance"] == "2/7"


def test_wdist_csv(capsys):
    code, out, _ = run(
        capsys, "wdist", "--system", "builtin:FF,q=2", "--X", "2", "--format", "csv"
    )
    assert code == 0
    assert out == "value,mass\n0,1/7\n1,5/7\n2,1/7\n"


def test_wdist_builds_one_joint_census(capsys, monkeypatch):
    calls = []
    real = distribution.joint_census

    def counting(*args, **kwargs):
        bc = real(*args, **kwargs)
        calls.append((args[1], bc))
        return bc

    monkeypatch.setattr(distribution, "joint_census", counting)
    code, out, _ = run(capsys, "wdist", "--system", "builtin:FF,q=2", "--X", "6")
    assert code == 0
    assert json.loads(out)["mean"] == json.loads(out)["mean_prime_sum"]
    # expected_w asks for the same census and gets the kept one back
    assert [X for X, _ in calls] == [6, 6]
    assert calls[0][1] is calls[1][1]


def test_ldp_csv(capsys):
    code, out, err = run(
        capsys,
        "ldp",
        "--system",
        "builtin:FF,q=2",
        "--X",
        "12",
        "--epsilon",
        "1.0",
        "--epsilon",
        "1.5",
    )
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "X,epsilon,threshold,log_p,normalized,rate_value,chebyshev"
    assert len(lines) == 1 + 3 * 2  # three window points, two epsilons
    assert lines[1].split(",")[0] == "4"


# builtin:GM written as a JSON product form
GM_JSON = {
    "type": "fad",
    "matrix": [[0, 0, 0, -1], [1, 0, 0, 3], [0, 1, 0, -3], [0, 0, 1, 3]],
    "r": {"values": [1, 1, "1/25"]},
    "primes": [{"p": 5, "s": {"values": [0, 0, 4]}, "t": {"values": [0]}}],
}


def test_ldp_never_builds_c(capsys, monkeypatch, tmp_path):
    # the tail report reads only B and Lambda: with Gamma and every helper
    # that builds C broken, ldp prints byte for byte what it prints unbroken
    spec = tmp_path / "gm.json"
    spec.write_text(json.dumps(GM_JSON))
    specs = ("builtin:FF,q=2", "builtin:E,p=3,n=2", "builtin:GA", "builtin:GM", str(spec))
    expected = [run(capsys, "ldp", "--system", system, "--X", "20") for system in specs]

    def broken(*args, **kwargs):
        raise AssertionError("C was built")

    monkeypatch.setattr(mpmath, "gamma", broken)
    for name in ("qp_product", "ca_log_weighted_sum", "_elliptic_c", "_fitted_c"):
        monkeypatch.setattr(asymptotics, name, broken)
    for system, want in zip(specs, expected):
        assert want[0] == 0 and want[1]
        assert run(capsys, "ldp", "--system", system, "--X", "20") == want
        # constants does build C, so the patches bite wherever a helper does
        if system != "builtin:FF,q=2":
            assert run(capsys, "constants", "--system", system, "--X", "20")[0] == 1


def test_ldp_json(capsys):
    code, out, _ = run(
        capsys, "ldp", "--system", "builtin:FF,q=2", "--X", "9", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"][1] == "epsilon"
    assert len(doc["rows"]) == 3


def test_sample_deterministic(capsys, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code, out, err = run(
            capsys,
            "sample",
            "--system",
            "builtin:FF,q=2",
            "--X",
            "8",
            "--samples",
            "40",
            "--seed",
            "9",
            "--out",
            str(p),
        )
        assert code == 0 and out == ""
    a, b = (p.read_bytes() for p in paths)
    assert a == b
    assert a.startswith(b"index,n,W,profile\n")
    assert len(a.splitlines()) == 41


def test_sample_streams_the_csv_rows(capsys, tmp_path):
    expected = io.StringIO()
    write_samples_csv(expected, build_census(builtin_source("E", p=3, n=2), 12), 12, 300, seed=4)
    argv = ("sample", "--system", "builtin:E,p=3,n=2", "--X", "12", "--samples", "300", "--seed", "4")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == expected.getvalue()
    path = tmp_path / "s.csv"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 0 and out == "" and err == ""
    assert path.read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("sub, lines, fault", [
    ("sample", 6, "completion tables disagree"),
    ("wdist", 26, "marginal mismatch at n=12"),
    ("ldp", 4, "marginal mismatch at n=12"),
], ids=["sample", "wdist", "ldp"])
def test_expands_the_euler_product_once(capsys, monkeypatch, sub, lines, fault):
    # the sampler's completion tables and the joint census's row sums are the
    # full-degree cross-check, so the census build runs no Euler product of its own
    argv = (sub, "--system", "builtin:E,p=3,n=2", "--X", "12", *(("--samples", "5") if sub == "sample" else ()))
    calls = []
    real = kernels.euler_product_series
    monkeypatch.setattr(kernels, "euler_product_series", lambda *args: calls.append(args) or real(*args))
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and len(out.splitlines()) == lines
    assert calls == []
    # a census whose orbit counts disagree with the product still exits 1
    real_exp = kernels.exp_logderiv_series
    monkeypatch.setattr(kernels, "exp_logderiv_series", lambda sigma, X: [*real_exp(sigma, X)[:-1], 0])
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"internal error: AssertionError: {fault}")


def test_a_failed_cross_check_on_long_counts_exits_1(capsys, monkeypatch):
    # constants at X=300 cross-checks FF(2^64) to n=256, a 16385-bit count
    # past Python's digit limit: the failed check is an internal error, exit 1
    source = builtin_source("FF", q=2**64)

    def off_by_one(P, X):
        totals = kernels.exp_logderiv_series(systems.sigma_table(source, X), X)
        totals[X] += 1
        return totals

    monkeypatch.setattr(kernels, "euler_product_series", off_by_one)
    code, out, err = run(capsys, "constants", "--system", f"builtin:FF,q={2**64}", "--X", "300")
    assert code == 1 and out == ""
    assert err.startswith("internal error: AssertionError: orbit-count routes disagree at n=256:")


def test_sample_bit_budget_refuses_before_the_census(capsys, monkeypatch):
    # X = 1024 passes --X, but q = 2^20 makes every table entry 20 times wider
    calls = []
    monkeypatch.setattr(OrbitCensus, "from_sigma", lambda *args, **kwargs: calls.append(args))
    code, out, err = run(capsys, "sample", "--system", "builtin:FF,q=1048576", "--X", "1024")
    assert code == 2 and out == ""
    assert err.startswith("error: sample tables would take about ")
    assert err.endswith("bits at --X 1024, more than the limit of 2^31\n")
    assert calls == []
    # E(3,2) at X = 1024 is the case the --X ceiling was set for; it fits
    bits = 1024**2 * max(systems.sigma_table(builtin_source("E", p=3, n=2), 1024)).bit_length() // 2
    assert 2**29 < bits <= cli.MAX_SAMPLE_BITS == 2**31


@pytest.fixture
def int_digits():
    """Sets Python's int-to-string digit limit for one test."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def test_digit_limit_refuses_before_the_census(capsys, monkeypatch, int_digits):
    # sigma_1024 = 2^14336 has 4316 digits, more than the CSV can be written
    # with, so nothing is built
    int_digits(4300)
    calls = []
    monkeypatch.setattr(OrbitCensus, "from_sigma", lambda *args, **kwargs: calls.append(args))
    code, out, err = run(capsys, "census", "--system", "builtin:FF,q=16384", "--X", "1024")
    assert code == 2 and out == "" and calls == []
    assert err == ("error: output integers could have up to 4319 decimal digits at --X 1024, more than "
                   "Python's limit of 4300; the PYTHONINTMAXSTRDIGITS environment variable raises it\n")


@pytest.mark.parametrize("argv,code,digits", [
    # N(X) is about 1024^X: 603 digits at X = 200, 648 at X = 215
    (["census", "--system", "builtin:FF,q=1024", "--X", "200"], 0, 603),
    (["census", "--system", "builtin:FF,q=1024", "--X", "215"], 2, 650),
    # wdist's JSON variance has a denominator near N(X)^2, its CSV only N(X)
    (["wdist", "--system", "builtin:FF,q=1048576", "--X", "50"], 0, 603),
    (["wdist", "--system", "builtin:FF,q=1048576", "--X", "56"], 2, 682),
    (["wdist", "--system", "builtin:FF,q=1048576", "--X", "56", "--format", "csv"], 0, 338),
    # ldp prints X and reals at --precision only, though N(36) has 694 digits
    (["ldp", "--system", "builtin:FF,q=18446744073709551616", "--X", "36"], 0, 36),
])
def test_digit_limit_on_each_side(capsys, int_digits, argv, code, digits):
    # the longest digit run printed, or the bound in the refusal
    int_digits(640)
    got, out, err = run(capsys, *argv)
    assert got == code
    if code == 0:
        assert err == "" and max(len(part) for part in re.split(r"[^0-9]", out)) == digits
    else:
        assert out == ""
        assert err.startswith(f"error: output integers could have up to {digits} decimal digits at --X {argv[-1]}")


@pytest.mark.parametrize("sub", list(cli.SUBCOMMANDS))
def test_x_ceiling_refuses_before_sigma(capsys, monkeypatch, sub):
    calls = []
    monkeypatch.setattr(systems, "sigma_table", lambda *args: calls.append(args))
    code, out, err = run(capsys, sub, "--system", "builtin:FF,q=2", "--X", "1000000000000")
    assert code == 2 and out == ""
    assert err == f"error: --X must be at most {cli.MAX_X}\n"
    assert calls == []


def test_validate_accepts_builtins(capsys):
    code, out, _ = run(capsys, "validate", "--system", "builtin:GA", "--X", "50")
    assert code == 0
    assert "ok for all ell <= 50" in out


def test_validate_rejects_bad_table(capsys):
    code, out, err = run(capsys, "validate", "--system", "table:[1,1,2]")
    assert code == 2 and out == ""
    assert "table:[1,1,2]:1: Dold check failed at ell=3" in err
    assert "Mobius sum 1 not divisible by 3" in err


def test_validate_clamps_to_table_length(capsys):
    # default X = 200 must not overrun a short table
    code, out, _ = run(capsys, "validate", "--system", "table:[2,2,2,18]")
    assert code == 0
    assert "ell <= 4" in out


def test_json_file_ingestion(capsys, tmp_path):
    spec = tmp_path / "system.json"
    spec.write_text(json.dumps({"type": "builtin", "name": "FF", "q": 2}))
    code, out, _ = run(capsys, "census", "--system", str(spec), "--X", "3")
    assert code == 0
    assert out.split("\n")[0] == "n,sigma,P,N,cumN,cumP,M"

    fad = tmp_path / "fad.json"
    fad.write_text(
        json.dumps(
            {
                "type": "fad",
                "c": 1,
                "matrix": [[2, 0], [0, 2]],
                "r": {"values": ["1", "1/3"]},
                "primes": [{"p": 3, "s": {"values": [0, 1]}, "t": {"values": [0]}}],
            }
        )
    )
    code, out, _ = run(capsys, "validate", "--system", str(fad), "--X", "30")
    assert code == 0
    assert "product-form invariants: ok" in out
    assert "ell <= 30" in out


def test_repeated_irrational_eigenvalue_system(capsys, tmp_path):
    spec = tmp_path / "golden2.json"
    matrix = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]
    spec.write_text(json.dumps({"type": "fad", "matrix": matrix}))
    code, out, err = run(capsys, "census", "--system", str(spec), "--X", "4")
    assert code == 0 and err == ""
    assert out.split("\n")[2].startswith("1,1,1,1,2,1,")
    code, out, err = run(capsys, "constants", "--system", str(spec))
    assert code == 0 and err == ""
    assert json.loads(out)["lambda"].startswith("6.854101966249684544613760503")


def test_large_block_matrix_systems(capsys, tmp_path):
    # sigma_k = |det(GM^k - 1)|^3 for three GM blocks (12x12); validate's
    # cyclotomic search on five blocks (20x20) runs up to n = 801
    spec = tmp_path / "gm3.json"
    spec.write_text(json.dumps({"type": "fad", "matrix": gm_blocks(3)}))
    code, out, err = run(capsys, "census", "--system", str(spec), "--X", "64")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().split("\n")[2:]]
    gm = systems.gm_matrix()
    assert [int(row[1]) for row in rows] == [abs(oracles.iterate_det(gm, k)) ** 3 for k in range(1, 65)]

    spec.write_text(json.dumps({"type": "fad", "matrix": gm_blocks(5)}))
    code, out, err = run(capsys, "validate", "--system", str(spec))
    assert code == 0 and err == ""
    assert "Dold congruences: ok" in out


@pytest.mark.parametrize("command", tuple(cli.COMMANDS))
@pytest.mark.parametrize("builtin", (True, False))
def test_each_run_reads_its_matrix_once(capsys, monkeypatch, tmp_path, command, builtin):
    # builtin:GM, or the 12x12 gm_blocks(3) as JSON: one characteristic
    # polynomial and at most one exact split per run, whatever reads them
    system = "builtin:GM"
    if not builtin:
        system = str(tmp_path / "gm3.json")
        (tmp_path / "gm3.json").write_text(json.dumps({"type": "fad", "matrix": gm_blocks(3)}))
    calls = dict.fromkeys(("charpoly", "exact_split"), 0)
    for name in calls:

        def counting(*args, real=getattr(polyops, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(polyops, name, counting)
    samples = ("--samples", "2") if command == "sample" else ()
    code, _, err = run(capsys, command, "--system", system, "--X", "8", *samples)
    # three GM blocks have three equal unit-circle pairs, which B refuses
    assert code == (2 if not builtin and command in ("constants", "ldp") else 0), err
    # a JSON spec is split when it is validated; a builtin is not validated,
    # so it is split only by a run that reads its spectrum
    split = not builtin or command in ("census", "constants", "ldp")
    assert calls == {"charpoly": 1, "exact_split": int(split)}


@pytest.mark.parametrize("builtin", [True, False])
@pytest.mark.parametrize("command", ["census", "wdist", "sample"])
def test_each_run_builds_its_sigma_table_once(capsys, monkeypatch, tmp_path, command, builtin):
    # the digit limit and the sample budget read the table the census is
    # then built from
    system = "builtin:GM"
    if not builtin:
        system = str(tmp_path / "gm3.json")
        (tmp_path / "gm3.json").write_text(json.dumps({"type": "fad", "matrix": gm_blocks(3)}))
    calls = []
    real = systems.sigma_table
    monkeypatch.setattr(systems, "sigma_table", lambda *args: calls.append(args) or real(*args))
    samples = ("--samples", "2") if command == "sample" else ()
    code, _, err = run(capsys, command, "--system", system, "--X", "8", *samples)
    assert code == 0, err
    assert [X for _, X in calls] == [8]


@pytest.mark.parametrize("command,X,d", [("validate", 5, 60), ("constants", 20, 30)])
def test_large_matrix_runs_stay_fast(capsys, tmp_path, command, X, d):
    # one Berkowitz charpoly and one exact split with modular gcds: on a
    # shared 2-vCPU VM about 0.3 s for validate at d = 60 and 1.05 s for
    # constants at d = 30 (mostly rooting the degree-30 polynomial), where
    # the Fraction route took 4.0-4.8 s and 5.2-6.3 s; the budget is twice
    # the 2 s target, since the VM slows by up to 2x under load
    spec = tmp_path / "seeded.json"
    spec.write_text(json.dumps({"type": "fad", "matrix": seeded_matrix(d)}))
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--system", str(spec), "--X", str(X))
    assert time.perf_counter() - start < 4
    assert code == 0 and err == ""
    if command == "constants":
        assert json.loads(out)["lambda"] == "1096298957140271324325725628.0"


def test_elliptic_constant_never_forms_n_to_the_order(capsys):
    # n = 2^64 has order d = 50001 mod 100003, so n^d has about 3.2 million
    # bits; C takes n^d as an mpf, in about 0.3 s on a shared 2-vCPU VM,
    # where the exact n^d took 28 s. The budget is twice the 2 s target
    start = time.perf_counter()
    code, out, err = run(capsys, "constants", "--system", "builtin:E,p=100003,n=18446744073709551616")
    assert time.perf_counter() - start < 4
    assert code == 0 and err == ""
    assert json.loads(out)["C"] == "1.00021641288793569515694307875521015"


# -- failure modes ----------------------------------------------------------------


# x^8 + 2^900 x^7 + 1: mpmath's root finder does not converge on it, and
# each doubling of the bits would triple the cost of failing again
OCTIC = polyops.companion_matrix([1, 0, 0, 0, 0, 0, 0, 2**900, 1])


def test_a_rooting_that_does_not_converge_exits_2_at_once(capsys, tmp_path):
    spec = tmp_path / "octic.json"
    spec.write_text(json.dumps({"type": "fad", "matrix": OCTIC}))
    start = time.perf_counter()
    code, out, err = run(capsys, "constants", "--system", str(spec), "--X", "10")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == f"error: {spec}:1: the roots of a degree-8 part are not certified at 917 bits: mpmath did not converge\n"


SHORT_TABLE = "table:[2,2,2,18]"  # too short for growth_rate's tail estimate


def test_wdist_of_short_table_needs_no_growth_rate(capsys):
    code, out, err = run(capsys, "wdist", "--system", SHORT_TABLE, "--X", "3")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["mean"] == doc["mean_prime_sum"] == "6/5"


def test_sample_of_short_table_needs_no_growth_rate(capsys):
    code, out, err = run(capsys, "sample", "--system", SHORT_TABLE, "--X", "3", "--samples", "2")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "index,n,W,profile" and len(out.splitlines()) == 3


@pytest.mark.parametrize(
    "argv,needle",
    [
        (("census", "--system", "builtin:ZZ", "--X", "4"), "unknown builtin"),
        (("census", "--system", "builtin:FF", "--X", "4"), "requires parameter q"),
        (("census", "--system", "builtin:FF,q", "--X", "4"), "expected key=value"),
        (("census", "--system", "table:[]", "--X", "2"), "empty table"),
        (("census", "--system", "no/such/file.json", "--X", "2"), "no such system spec"),
        (("census", "--system", "builtin:FF,q=2", "--X", "0"), "--X must be at least 1"),
        (("census", "--system", "builtin:FF,q=2", "--X", "4", "--precision", "32"), "at least 64"),
        (("sample", "--system", "builtin:FF,q=2", "--X", "4", "--seed", "-1"), "64 bits"),
        (("census", "--system", "builtin:FF,q=2"), "--X is required"),
        (("census", "--system", "table:[1,1,2]", "--X", "3"), "Dold"),
        (("ldp", "--system", "builtin:periodic,values=[1,3]", "--X", "8"), "growth rate 1"),
        (("sample", "--system", "builtin:FF,q=2", "--X", "4", "--samples", "0"), "--samples must be at least 1"),
        (("sample", "--system", "builtin:FF,q=2", "--X", "4", "--samples", "-3"), "--samples must be at least 1"),
        (("census", "--system", "builtin:FF,q=2,q=3", "--X", "4"), "parameter q given more than once"),
        (("ldp", "--system", "builtin:FF,q=2", "--X", "9", "--epsilon", "nan"), "--epsilon must be a finite number"),
        (("ldp", "--system", "builtin:FF,q=2", "--X", "9", "--epsilon", "inf"), "--epsilon must be a finite number"),
        (("census", "--system", SHORT_TABLE, "--X", "3"), f"{SHORT_TABLE}:1: table too short for a growth estimate (need >= 8)"),
        (("ldp", "--system", "builtin:FF,q=2", "--X", "20", "--epsilon", "-1"), "--epsilon must be at least 0"),
        (("census", "--system", "builtin:FF,q=2", "--X", "4", "--precision", "65537"), "at most 65536"),
        (("census", "--system", "builtin:periodic,values=5", "--X", "3"), "periodic values must be a list, got 5"),
        (("census", "--system", "builtin:FF,q=2", "--X", "1025"), "--X must be at most 1024"),
        # passes Dold with a minimal period of 6 and average 5, but P_4 = 1
        (("constants", "--system", "builtin:periodic,values=[1,1,1,5,21,1]"),
         "builtin:periodic,values=[1,1,1,5,21,1]:1: nonzero prime count at ell=4 not dividing the period"),
    ],
)
def test_spec_failures_exit_2(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert needle in err


@pytest.mark.parametrize("p", [3000029, 1000000000039, 1000000000000000003])
def test_elliptic_orders_above_the_period_limit_exit_2(capsys, p):
    # the order of 2 mod p sets the period of r and s: refused before r is built
    for sub in ("validate", "constants"):
        start = time.perf_counter()
        code, out, err = run(capsys, sub, "--system", f"builtin:E,p={p},n=2", "--X", "5")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: builtin:E,p={p},n=2:1: the order of n mod p exceeds the period limit 2^17\n"


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441, strong pseudoprime to bases 2..37
PSI_13 = 3317044064679887385961981  # the least strong pseudoprime to bases 2..41


UNDECIDED = f"primality is decided only below {PSI_13}"


@pytest.mark.parametrize("p, elliptic, padic", [
    (PSI_12, "p must be an odd prime", f"{PSI_12} is not prime"),
    (PSI_13, UNDECIDED, UNDECIDED),
])
def test_primes_beyond_the_witness_set_exit_2(capsys, tmp_path, p, elliptic, padic):
    # as an elliptic system's p and as the prime of a p-adic factor
    spec = tmp_path / "padic.json"
    spec.write_text(json.dumps({"type": "fad", "c": 2, "primes": [{"p": p, "s": {"values": [0]}, "t": {"values": [1]}}]}))
    for system, reason in ((f"builtin:E,p={p},n={p - 1}", elliptic), (str(spec), padic)):
        for sub in ("validate", "constants", "census"):
            code, out, err = run(capsys, sub, "--system", system, "--X", "5")
            assert (code, out) == (2, ""), (sub, system, err)
            assert err.startswith(f"error: {system}:1: {reason}"), err


def test_elliptic_order_within_the_period_limit(capsys):
    # the order of 2 mod 100003 is 100002
    code, out, err = run(capsys, "validate", "--system", "builtin:E,p=100003,n=2", "--X", "5")
    assert (code, out, err) == (0, "Dold congruences: ok for all ell <= 5\n", "")


def test_validate_reads_a_period_at_the_limit_in_linear_time(capsys, tmp_path):
    # r_n = gcd(n, 2^17), then with r at the divisor 2^16 changed to 3, which
    # passes a_n = a_gcd(n,L) and fails on the divisor pairs; 2-adic s of the
    # odd period L = 127575: v_3(gcd(n, L)), then 0, 1, ..., L - 1, whose
    # powers 2^s alone would take L^2 / 2 bits
    L = 2**17
    r = [gcd(n, L) for n in range(1, L + 1)]
    L = 3**6 * 5**2 * 7
    s = [next(v for v in range(7) if gcd(n, L) % 3 ** (v + 1)) for n in range(1, L + 1)]
    ok = "product-form invariants: ok (validated at construction)\nDold congruences: ok for all ell <= 5\n"
    spec = tmp_path / "spec.json"
    cases = (
        ({"c": 2, "r": {"values": r}}, (0, ok, "")),
        ({"c": 2, "r": {"values": r[: 2**16 - 1] + [3] + r[2**16:]}}, (2, "", f"error: {spec}:1: r is not a gcd-sequence\n")),
        ({"c": 3, "primes": [{"p": 2, "s": {"values": s}, "t": {"values": [0]}}]}, (0, ok, "")),
        ({"c": 3, "primes": [{"p": 2, "s": {"values": list(range(L))}, "t": {"values": [0]}}]},
         (2, "", f"error: {spec}:1: p^s is not a gcd-sequence\n")),
    )
    for fields, want in cases:
        spec.write_text(json.dumps({"type": "fad", **fields}))
        start = time.perf_counter()
        got = run(capsys, "validate", "--system", str(spec), "--X", "5")
        assert time.perf_counter() - start < 1
        assert got == want


def test_class_walk_above_the_period_limit_exits_2(capsys, tmp_path):
    # coprime shortest periods 367 and 373 make 136891 residue classes
    spec = tmp_path / "walk.json"
    spec.write_text(json.dumps({
        "type": "fad",
        "c": 2,
        "r": {"values": [1] * 366 + [367]},
        "primes": [{"p": 2, "s": {"values": [0] * 372 + [1]}, "t": {"values": [0]}}],
    }))
    for sub in ("constants", "ldp"):
        code, out, err = run(capsys, sub, "--system", str(spec), "--X", "5")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {spec}:1: 136891 residue classes, the lcm of the shortest periods: ")


def test_malformed_json_is_line_anchored(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "type": "table",\n  "sigma": [1, 1,\n}\n')
    code, _, err = run(capsys, "census", "--system", str(bad), "--X", "2")
    assert code == 2
    assert f"{bad}:4:" in err


def test_unreadable_or_deep_spec_files_exit_2(capsys, tmp_path, monkeypatch):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run(capsys, "validate", "--system", str(deep), "--X", "2")
    assert (code, out, err) == (2, "", f"error: {deep}:1: JSON nested too deeply\n")
    code, out, err = run(capsys, "validate", "--system", str(tmp_path), "--X", "2")
    assert (code, out, err) == (2, "", f"error: {tmp_path}:1: cannot read system spec: Is a directory\n")

    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    # a file mode would not stop a superuser, so the refusal is simulated
    monkeypatch.setattr(cli, "open", denied, raising=False)
    code, out, err = run(capsys, "census", "--system", str(deep), "--X", "2")
    assert (code, out, err) == (2, "", f"error: {deep}:1: cannot read system spec: Permission denied\n")


NON_INTEGRAL_FAD = {
    "type": "fad",
    "c": 2,
    "matrix": [[2, 1], [1, 1]],
    "r": {"values": [1, 2]},
    "primes": [{"p": 3, "s": {"values": [1]}, "t": {"values": [1]}}],
}


def test_json_semantic_error_anchored(capsys, tmp_path):
    spec = tmp_path / "odd.json"
    for obj, needle in (
        ({"type": "magic"}, "unknown system type 'magic'"),
        # integer fields are never truncated
        ({"type": "fad", "c": 2.7}, "c must be an integer, got 2.7"),
        ({"type": "fad", "c": True}, "c must be an integer, got True"),
        ({"type": "builtin", "name": "FF", "q": 2.9}, "q must be an integer, got 2.9"),
        ({"type": "fad", "matrix": [[2.5, 0], [0, 2]]}, "matrix entry must be an integer, got 2.5"),
        # a spec of the wrong shape is rejected input, naming the field
        ([1, 2], "the top level must be a JSON object, got array"),
        ({"type": "builtin"}, "name is required"),
        ({"type": "fad", "matrix": [1, 2]}, "matrix[0] must be a JSON array, got number"),
        ({"type": "table", "sigma": 5}, "sigma must be a JSON array, got number"),
        ({"type": "fad", "r": {"values": 5}}, "r.values must be a JSON array, got number"),
        ({"type": "fad", "primes": [{"p": 3}]}, "primes[0].s is required"),
        ({"type": "builtin", "name": "periodic", "values": 5}, "periodic values must be a list, got 5"),
        # sigma_1 = 2 * 1 * 1 / 3 is not an integer
        (NON_INTEGRAL_FAD, "non-realizable parameters at k=1"),
    ):
        spec.write_text(json.dumps(obj))
        for sub in ("census", "constants", "wdist", "ldp", "sample", "validate"):
            code, out, err = run(capsys, sub, "--system", str(spec), "--X", "2")
            assert code == 2 and out == "", (sub, obj)
            assert err == f"error: {spec}:1: {needle}\n", sub


def test_json_repeated_key_is_rejected(capsys, tmp_path):
    spec = tmp_path / "dup.json"
    spec.write_text('{"type": "builtin", "name": "FF", "q": 2, "q": 3}')
    code, out, err = run(capsys, "census", "--system", str(spec), "--X", "2")
    assert code == 2 and out == ""
    assert f"{spec}:1: key 'q' given more than once" in err


@pytest.mark.parametrize(
    "sub,flag",
    [
        ("constants", "--format csv"),
        ("sample", "--format json"),
        ("wdist", "--no-include-empty-orbit"),
        ("wdist", "--precision 64"),
        ("census", "--seed 1"),
        ("census", "--skip-validate"),
        ("census", "--epsilon 3"),
        ("ldp", "--samples 7"),
        ("validate", "--precision 128"),
    ],
)
def test_subcommands_reject_flags_they_do_not_read(capsys, sub, flag):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--system", "builtin:FF,q=2", "--X", "3", *flag.split()])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_subcommand_help_lists_the_flags_it_reads(capsys):
    expected = {
        "census": ["--precision", "--format", "--include-empty-orbit", "--no-include-empty-orbit"],
        "constants": ["--precision"],
        "wdist": ["--format"],
        "ldp": ["--precision", "--epsilon", "--format"],
        "sample": ["--seed", "--samples"],
        "validate": [],
    }
    for sub, flags in expected.items():
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        out = capsys.readouterr().out
        listed = re.findall(r"--[\w-]+", out.split("options:")[1])
        assert listed == ["--help", "--system", "--X", *flags, "--out"], sub


@pytest.mark.parametrize("error", [RuntimeError, AssertionError])
def test_internal_errors_exit_1(capsys, monkeypatch, error):
    # a failed internal-consistency check is the code's fault, not the input's
    def boom(config):
        raise error("wires crossed")

    monkeypatch.setitem(cli.COMMANDS, "census", boom)
    code, out, err = run(capsys, "census", "--system", "builtin:FF,q=2", "--X", "2")
    assert code == 1 and out == ""
    assert err == f"internal error: {error.__name__}: wires crossed\n"


def test_fmt_number_shapes():
    from fractions import Fraction

    import mpmath as mp

    assert cli.fmt_number(True) is True
    assert cli.fmt_number(7) == 7
    assert cli.fmt_number(Fraction(5, 8)) == "5/8"
    assert cli.fmt_number(Fraction(4, 2)) == "2"
    assert cli.fmt_number(None) is None
    assert cli.fmt_number(mp.inf) == "inf"
    assert cli.fmt_number(mp.ninf) == "-inf"
    assert cli.fmt_number(mp.mpf("0.5")) == "0.5"


@pytest.mark.parametrize("sub", ["ldp", "wdist", "constants", "census", "validate"])
def test_growth_rate_beyond_float_range_exits_cleanly(capsys, sub):
    # Lambda = 2^4000 has no float; every comparison on it stays exact
    code, out, err = run(capsys, sub, "--system", f"builtin:FF,q={2**4000}", "--X", "3")
    assert code in (0, 2), err
    assert "internal error" not in err
    if sub == "ldp":
        assert code == 0 and out.startswith("X,epsilon,threshold")


# -- every input exits 0 or 2: a property test over the input grammar -------------

# boundary values where an integer belongs, and values of the wrong type there
BOUNDARY_INTS = (0, 1, -1, 2, 3, 5, 2**64, 2**4000)
NOT_INTS = (2.5, 2.0, True, "2", None, [], [2])
PRIMES = (1, 2, 3, 4, 5, 7, 2**61 - 1, 100003, 3000029, 1000000000039, 1000000000000000003)
MATRICES = (
    [[0, -1], [1, 0]],  # rotation: a root of unity
    [[0, 1], [0, 0]],  # nilpotent
    [list(row) for row in systems.gm_matrix()],  # Salem
    [[2, 1], [0, 2]],  # repeated root
    [[2, 1], [1, 1]],
    [[2**64]],
    [],
    [[1, 2]],  # not square
    [[1], [2, 3]],  # ragged
    [[[1]]],  # nested
    # x^2 - S x + S: a root 2^-e outside the unit circle, with S = 2^e
    [[0, -(2**40)], [1, 2**40]],
    [[0, -(2**200)], [1, 2**200]],
    OCTIC,
)
# coprime shortest periods 367 and 373: a class walk beyond the period limit
LONG_WALK = {
    "type": "fad",
    "c": 2,
    "r": {"values": [1] * 366 + [367]},
    "primes": [{"p": 2, "s": {"values": [0] * 372 + [1]}, "t": {"values": [0]}}],
}

ints = st.sampled_from(BOUNDARY_INTS)
anything = st.one_of(ints, st.sampled_from(NOT_INTS))
value_lists = st.one_of(
    st.lists(st.sampled_from((0, 1, 2, 3, 6, 2**64)), max_size=4),
    st.lists(st.one_of(ints, st.sampled_from(("1/3", "1/25", 2.5, True, [1]))), max_size=3),
)
# systems that every subcommand but ldp on growth rate 1 accepts
VALID = (
    "builtin:FF,q=2", "builtin:E,p=3,n=2", "builtin:E,p=5,n=3", "builtin:E,p=100003,n=2", "builtin:GA",
    "builtin:GM", "builtin:periodic,values=[1,3]", "builtin:periodic,values=[2,2,2,6]",
    "table:[1,3,1,7,1,3,1,15,1,33]",
    json.dumps({"type": "fad", "c": 2, "primes": [{"p": 2, "s": {"values": [0]}, "t": {"values": [1]}}]}),
    json.dumps({"type": "fad", "matrix": [[0, 1], [0, 0]], "r": {"values": [1, 3]}}),
    json.dumps({"type": "fad", "matrix": [list(row) for row in systems.gm_matrix()], "r": {"values": [1, 1, "1/25"]},
                "primes": [{"p": 5, "s": {"values": [0, 0, 4]}, "t": {"values": [0]}}]}),
)
shorthand = st.one_of(
    ints.map(lambda q: f"builtin:FF,q={q}"),
    st.sampled_from(("2.5", "[2]", "", "x")).map(lambda q: f"builtin:FF,q={q}"),
    st.tuples(st.sampled_from(PRIMES), ints).map(lambda pn: f"builtin:E,p={pn[0]},n={pn[1]}"),
    st.sampled_from(("builtin:GA", "builtin:GM", "builtin:GA,x=1", "builtin:ZZ", "builtin:")),
    st.lists(st.sampled_from((0, 1, 2, 3, 6, -1, 2**64)), max_size=4).map(
        lambda v: f"builtin:periodic,values=[{','.join(map(str, v))}]"
    ),
    st.sampled_from(("builtin:periodic,values=[[1]]", "builtin:periodic,values=[1,,2]", "builtin:periodic,values=5")),
    st.lists(st.sampled_from((0, 1, 2, 4, 2**64, -1)), max_size=12).map(lambda v: f"table:[{','.join(map(str, v))}]"),
)
prime_factors = st.fixed_dictionaries({
    "p": st.one_of(st.sampled_from(PRIMES), st.sampled_from(NOT_INTS)),
    "s": st.fixed_dictionaries({"values": value_lists}),
    "t": st.fixed_dictionaries({"values": value_lists}),
})
json_specs = st.one_of(
    st.fixed_dictionaries({"type": st.just("builtin"), "name": st.sampled_from(("FF", "GA", "periodic", "E"))},
                          optional={"q": anything, "p": anything, "n": anything, "values": value_lists}),
    st.fixed_dictionaries({"type": st.just("fad")}, optional={
        "c": anything,
        "matrix": st.sampled_from(MATRICES),
        "r": st.fixed_dictionaries({"values": value_lists}),
        "primes": st.lists(prime_factors, max_size=2),
    }),
    st.fixed_dictionaries({"type": st.just("table"), "sigma": value_lists}),
    st.sampled_from(([1, 2], {"type": "magic"}, {"type": "fad", "primes": [[]]}, LONG_WALK)),
)
RAW_JSON = ('{"type": "fad", "c": 2, "c": 3}', '{"type": "builtin", "name": "FF", "q": 2', "[" * 5000)
# valid flag values, then at most one boundary value that RunConfig refuses
flags = st.fixed_dictionaries({
    "--X": st.sampled_from((None, 1, 2, 3, 5, 8, 12)),
    "--precision": st.sampled_from((None, 64, 128, 256)),
    "--epsilon": st.sampled_from((None, "0", "0.5", "2", "1e308")),
    "--seed": st.sampled_from((None, 0, 7, 2**64 - 1)),
    "--samples": st.sampled_from((1, 3)),
    "--format": st.sampled_from((None, "csv", "json")),
})
bad_flags = st.sampled_from((None,) * 33 + (
    ("--X", 0), ("--X", -1), ("--X", 1025), ("--X", 2**64), ("--precision", 32), ("--precision", 65537),
    ("--epsilon", "nan"), ("--epsilon", "-1"), ("--seed", -1), ("--seed", 2**64), ("--samples", 0),
))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(tuple(cli.COMMANDS)),
    st.one_of(st.sampled_from(VALID), shorthand, json_specs.map(json.dumps), st.sampled_from(RAW_JSON)),
    flags,
    bad_flags,
    st.sampled_from((False,) * 9 + (True,)),
)
def test_every_input_exits_0_or_2(tmp_path_factory, command, system, flag_values, bad, stray):
    if not system.startswith(("builtin:", "table:")):
        path = tmp_path_factory.getbasetemp() / "grammar-spec.json"
        path.write_text(system)
        system = str(path)
    argv = [command, "--system", system]
    options = cli.SUBCOMMANDS[command][1]
    taken = {"--X"} | {"--" + flag.replace("_", "-") for flag in options}
    for flag, value in {**flag_values, **dict([bad] if bad else [])}.items():
        # validate reads 200 terms without --X: every run stays at X <= 12
        if value is None and flag == "--X" and command == "validate":
            value = 12
        # a flag the subcommand does not take is refused by the parser
        if value is not None and (flag in taken or stray):
            argv += [flag, str(value)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "internal error" not in err.getvalue()
    fmt = "--format" in taken and flag_values["--format"] or options.get("format", {}).get("default")
    if code == 0 and (command == "constants" or fmt == "json"):
        doc = json.loads(out.getvalue())
        source = cli.parse_system(system)
        if source.kind == "builtin":
            assert cli.parse_system(doc["system"]) == source
        else:
            # "fad" and "table[n]" name no system that --system reads
            assert doc["system"] == source.describe()
