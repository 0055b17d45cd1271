"""End-to-end CLI behavior through main(argv): exit codes, anchored
diagnostics, schema-tagged JSON, and deterministic outputs."""

import io
import json
import re

import pytest

from orbitstat import build_census, builtin_source, cli, distribution, write_samples_csv
from orbitstat.cli import main


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


def test_constants_ff_and_periodic(capsys):
    code, out, _ = run(capsys, "constants", "--system", "builtin:FF,q=2")
    assert code == 0
    doc = json.loads(out)
    assert doc["B"] == "1" and doc["C"] == "2" and doc["lambda"] == "2"

    code, out, _ = run(capsys, "constants", "--system", "builtin:periodic,values=[1,3]")
    assert code == 0
    doc = json.loads(out)
    assert doc["B"] == "2" and doc["C"] == "1/2" and doc["lambda"] == "1"


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
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(distribution, "joint_census", counting)
    code, out, _ = run(capsys, "wdist", "--system", "builtin:FF,q=2", "--X", "6")
    assert code == 0
    assert json.loads(out)["mean"] == json.loads(out)["mean_prime_sum"]
    assert calls == [6]


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


# -- failure modes ----------------------------------------------------------------


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
    ],
)
def test_spec_failures_exit_2(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert needle in err


def test_malformed_json_is_line_anchored(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "type": "table",\n  "sigma": [1, 1,\n}\n')
    code, _, err = run(capsys, "census", "--system", str(bad), "--X", "2")
    assert code == 2
    assert f"{bad}:4:" in err


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
