"""Sources, sigma evaluation, growth rates, spectra, Dold validation."""

from fractions import Fraction
from math import prod

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitstat import asymptotics, census, polyops, systems
from orbitstat.numtheory import PeriodicSequence
from orbitstat.systems import (
    FadPrime,
    FadSpec,
    builtin_source,
    fad_source,
    fad_spec_for,
    fluctuation_spectrum,
    growth_rate,
    sigma_eval,
    sigma_table,
    source_from_json,
    spectrum_for,
    table_source,
    validate_dold,
)

import oracles


# -- sigma values against the oracle formulas --------------------------------


def test_sigma_ff_matches_oracle():
    for q in (2, 3, 5):
        src = builtin_source("FF", q=q)
        table = sigma_table(src, 20)
        assert table[1:] == oracles.sigma_ff(q, 20)
        assert all(sigma_eval(src, k) == table[k] for k in range(1, 21))


def test_sigma_e_matches_oracle():
    for p, n in ((3, 2), (5, 2), (7, 10), (3, 6)):
        src = builtin_source("E", p=p, n=n)
        table = sigma_table(src, 24)
        assert table[1:] == oracles.sigma_e(p, n, 24)
        assert all(sigma_eval(src, k) == table[k] for k in range(1, 25))


def test_sigma_ga_matches_oracle():
    src = builtin_source("GA")
    table = sigma_table(src, 32)
    assert table[1:] == oracles.sigma_ga(32)
    assert sigma_eval(src, 8) == 2 ** (8 - 8)
    assert sigma_eval(src, 12) == 2 ** (12 - 4)


def test_sigma_gm_matches_independent_determinants():
    src = builtin_source("GM")
    table = sigma_table(src, 12)
    assert table[1:] == oracles.sigma_gm(12)
    assert all(sigma_eval(src, k) == table[k] for k in range(1, 13))


def test_sigma_periodic_and_table():
    src = builtin_source("periodic", values=(1, 3))
    assert sigma_table(src, 7)[1:] == [1, 3, 1, 3, 1, 3, 1]
    tab = table_source((5, 1, 2))
    assert sigma_table(tab, 3)[1:] == [5, 1, 2]
    assert sigma_eval(tab, 2) == 1
    with pytest.raises(ValueError, match="covers only"):
        sigma_eval(tab, 4)
    with pytest.raises(ValueError, match="covers only"):
        sigma_table(tab, 4)


def test_fad_spec_for_rejects_tables():
    with pytest.raises(ValueError):
        fad_spec_for(table_source((1, 1)))


# -- construction errors ------------------------------------------------------


def test_builtin_source_errors():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_source("ZZ")
    with pytest.raises(ValueError, match="requires parameter q"):
        builtin_source("FF")
    with pytest.raises(ValueError):
        builtin_source("FF", q=1)
    with pytest.raises(ValueError, match="odd prime"):
        builtin_source("E", p=2, n=3)
    with pytest.raises(ValueError, match="odd prime"):
        builtin_source("E", p=9, n=2)
    with pytest.raises(ValueError):
        builtin_source("E", p=3, n=1)
    with pytest.raises(ValueError, match="unexpected parameters"):
        builtin_source("GA", q=2)
    with pytest.raises(ValueError):
        builtin_source("periodic", values=())
    with pytest.raises(ValueError):
        table_source((1, -1))
    with pytest.raises(ValueError):
        table_source(())


def test_fad_spec_validation():
    one = PeriodicSequence.constant(1)
    zero = PeriodicSequence.constant(0)
    with pytest.raises(ValueError, match="positive integer"):
        FadSpec(c=0).validate()
    with pytest.raises(ValueError, match="root-of-unity"):
        FadSpec(matrix=((1, 0), (0, 2))).validate()
    with pytest.raises(ValueError, match="square"):
        FadSpec(matrix=((1, 0),)).validate()
    with pytest.raises(ValueError, match="gcd-sequence"):
        FadSpec(r=PeriodicSequence((1, 2, 3))).validate()
    with pytest.raises(ValueError, match="strictly positive"):
        FadSpec(r=PeriodicSequence((1, 0))).validate()
    with pytest.raises(ValueError, match="not prime"):
        FadSpec(primes=(FadPrime(4, zero, one),)).validate()
    with pytest.raises(ValueError, match="duplicate"):
        FadSpec(primes=(FadPrime(3, zero, one), FadPrime(3, one, zero))).validate()
    with pytest.raises(ValueError, match="coprime"):
        FadSpec(primes=(FadPrime(3, PeriodicSequence((0, 1, 0)), zero),)).validate()
    with pytest.raises(ValueError, match="integers"):
        FadSpec(primes=(FadPrime(3, PeriodicSequence((Fraction(1, 2),)), zero),)).validate()
    # The GM spec has fractional r values and must still validate.
    fad_spec_for(builtin_source("GM")).validate()


def test_fad_sigma_realizability_errors():
    # r = 1/2 at k = 1 makes sigma fractional there.
    spec = FadSpec(c=1, r=PeriodicSequence((Fraction(1, 2), 1)))
    src = fad_source(spec, validate=False)
    with pytest.raises(ValueError, match="non-realizable"):
        sigma_eval(src, 1)
    # c = 1 with s = 1 at one prime makes sigma_p fractional.
    spec2 = FadSpec(c=1, primes=(FadPrime(3, PeriodicSequence.constant(1), PeriodicSequence.constant(0)),))
    src2 = fad_source(spec2, validate=False)
    with pytest.raises(ValueError, match="non-realizable"):
        sigma_eval(src2, 3)


# -- growth rates -------------------------------------------------------------


def test_growth_rate_exact_cases():
    assert growth_rate(builtin_source("FF", q=7)).exact == 7
    assert growth_rate(builtin_source("E", p=3, n=2)).exact == 4
    assert growth_rate(builtin_source("GA")).exact == 2
    assert growth_rate(builtin_source("periodic", values=(1, 3))).exact == 1
    assert float(growth_rate(builtin_source("FF", q=2))) == 2.0


def test_growth_rate_gm_is_the_salem_root():
    lam = growth_rate(builtin_source("GM"), precision=128).value
    assert lam > 2
    with mp.workprec(160):
        residual = lam**4 - 3 * lam**3 + 3 * lam**2 - 3 * lam + 1
        assert abs(residual) < mp.mpf(2) ** -100


def test_growth_rate_fad_without_matrix():
    spec = FadSpec(c=5)
    assert growth_rate(fad_source(spec)).exact == 5


def test_growth_rate_user_matrices():
    # Integer eigenvalues give an exact rate; the golden-mean matrix does not.
    rate = growth_rate(fad_source(FadSpec(matrix=((3, 0), (0, 2)))))
    assert rate.exact == 6 and float(rate) == 6.0
    golden = growth_rate(fad_source(FadSpec(matrix=((2, 1), (1, 1)))))
    assert golden.exact is None
    with mp.workprec(160):
        assert abs(golden.value - ((3 + mp.sqrt(5)) / 2)) < mp.mpf(2) ** -100


def test_growth_rate_large_integer_roots():
    # The exact rate must not depend on factoring the determinant.
    for n in (2**61 - 1, 2**255 - 19):
        assert growth_rate(builtin_source("E", p=3, n=n)).exact == n**2
    big = 2**89 - 1
    mixed = ((big, 0, 0, 0), (0, -3, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1))
    assert growth_rate(fad_source(FadSpec(matrix=mixed), validate=False)).exact is None
    diagonal = FadSpec(c=2, matrix=((big, 0, 0), (0, big + 2, 0), (0, 0, -3)))
    assert growth_rate(fad_source(diagonal)).exact == 2 * big * (big + 2) * 3


def test_growth_rate_table_is_low_confidence():
    src = table_source(tuple(2**k for k in range(1, 17)))
    rate = growth_rate(src)
    assert rate.low_confidence
    assert abs(float(rate) - 2.0) < 0.1
    with pytest.raises(ValueError, match="too short"):
        growth_rate(table_source((1, 2, 4)))


# -- spectra ------------------------------------------------------------------


def test_gm_spectrum():
    rep = spectrum_for(builtin_source("GM"))
    assert rep.m == 1
    assert not rep.contains_root_of_unity
    assert rep.theta_rational_flags == (False,)
    theta = rep.unit_angles[0]
    with mp.workprec(160):
        # 2 cos theta = (3 - sqrt 5) / 2 for the unit-circle pair
        assert abs(2 * mp.cos(theta) - (3 - mp.sqrt(5)) / 2) < mp.mpf(2) ** -100
    assert abs(float(rep.lam) - float(growth_rate(builtin_source("GM")).value)) < 1e-30
    assert rep.notes  # dual-reading provenance is recorded


def test_spectrum_of_repeated_integer_eigenvalues():
    # (x - 10)^2 has a double root that numeric root finding cannot settle;
    # integer spectra are handled exactly.
    rep = spectrum_for(builtin_source("E", p=7, n=10))
    assert rep.m == 0
    assert rep.lam == 100
    assert fluctuation_spectrum(((3, 0), (0, 2)), c=2).lam == 12


def test_rotation_matrix_has_rational_angle():
    rep = fluctuation_spectrum(((0, -1), (1, 0)))
    assert rep.m == 1
    assert rep.contains_root_of_unity
    assert rep.theta_rational_flags == (True,)
    assert rep.rational_angles == ((1, 4),)
    with mp.workprec(80):
        assert abs(rep.unit_angles[0] - mp.pi / 2) < mp.mpf(2) ** -60
    assert abs(float(rep.lam) - 1.0) < 1e-20


def test_spectrum_without_matrix_is_trivial():
    rep = spectrum_for(builtin_source("FF", q=3))
    assert rep.m == 0
    assert rep.unit_angles == ()
    assert float(rep.lam) == 3.0


def test_hyperbolic_matrix_has_empty_unit_spectrum():
    rep = fluctuation_spectrum(((2, 1), (1, 1)))
    assert rep.m == 0
    assert not rep.contains_root_of_unity
    with mp.workprec(80):
        golden = (3 + mp.sqrt(5)) / 2
        assert abs(rep.lam - golden) < mp.mpf(2) ** -60


REPEATED_GOLDEN = ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1))


def test_repeated_non_integer_eigenvalue():
    # (x^2 - 3x + 1)^2: a double irrational root, which numeric root finding
    # on the whole characteristic polynomial does not settle.
    src = fad_source(FadSpec(matrix=REPEATED_GOLDEN), validate=False)
    rate = growth_rate(src)
    assert rate.exact is None
    with mp.workprec(160):
        assert abs(rate.value - (7 + 3 * mp.sqrt(5)) / 2) < mp.mpf(2) ** -100
    assert spectrum_for(src).m == 0


def test_root_split_parts():
    # x^2 (x - 1)^2 (x + 1) (x^2 + x + 1) (x - 3)^2 (x^4 - 3x^3 + 3x^2 - 3x + 1)
    f = [1]
    for factor in ([0, 1], [0, 1], [-1, 1], [-1, 1], [1, 1], [1, 1, 1], [-3, 1], [-3, 1]):
        f = polyops.poly_mul(f, factor)
    split = polyops.root_split(f, 128)
    assert split.exact == 9
    assert abs(split.outside - 9) < mp.mpf(2) ** -100
    assert sorted(split.cyclotomic) == [1, 1, 2, 3]
    assert split.unit_roots == ()
    gm = polyops.root_split(polyops.poly_mul(f, list(systems.GM_POLY)), 128)
    assert gm.exact is None and sorted(gm.cyclotomic) == [1, 1, 2, 3]
    assert len(gm.unit_roots) == 1
    assert polyops.root_split([0, 0, 1], 128) == polyops.RootSplit(1, 1, (), ())


def test_spectrum_and_growth_rate_share_lambda():
    sources = [builtin_source(name) for name in ("GM", "GA")]
    sources += [builtin_source("FF", q=3), builtin_source("E", p=3, n=2**61 - 1)]
    sources += [
        fad_source(FadSpec(c=c, matrix=m), validate=False)
        for c, m in ((1, ((2, 1), (1, 1))), (2, ((2, 1), (1, 1))), (1, REPEATED_GOLDEN))
    ]
    for src in sources:
        for precision in (128, 256):
            assert spectrum_for(src, precision).lam == growth_rate(src, precision).value


def test_gm_is_rooted_once_per_call(monkeypatch):
    gm = builtin_source("GM")
    cen = census.build_census(gm, 20)
    calls = []
    real = polyops.poly_roots

    def counting(f, precision):
        calls.append(len(f) - 1)
        return real(f, precision)

    monkeypatch.setattr(polyops, "poly_roots", counting)
    for compute in (
        lambda: growth_rate(gm),
        lambda: spectrum_for(gm),
        lambda: asymptotics.constants_for(gm, cen=cen),
    ):
        calls.clear()
        compute()
        assert calls == [4]


# -- Dold validation ----------------------------------------------------------


def test_validate_dold_accepts_realizable_tables():
    for sigma in (
        oracles.sigma_ff(2, 64),
        oracles.sigma_e(3, 2, 64),
        oracles.sigma_ga(64),
        oracles.sigma_gm(10),
        oracles.sigma_periodic((1, 3), 64),
    ):
        assert validate_dold(sigma).ok


def test_validate_dold_rejections():
    rep = validate_dold([1, 1, 2])
    assert not rep.ok
    ell, reason = rep.first_failure
    assert ell == 3
    assert "not divisible by 3" in reason
    rep2 = validate_dold([2, 0])
    assert not rep2.ok
    assert rep2.first_failure[0] == 2
    assert "negative" in rep2.first_failure[1]
    with pytest.raises(ValueError):
        validate_dold([])


# -- JSON ingestion -----------------------------------------------------------


def test_source_from_json_variants():
    t = source_from_json({"type": "table", "sigma": [1, 1, 2]})
    assert t.kind == "table" and t.table == (1, 1, 2)

    b = source_from_json({"type": "builtin", "name": "E", "p": 3, "n": 2})
    assert sigma_eval(b, 3) == 49

    f = source_from_json(
        {
            "type": "fad",
            "c": 1,
            "matrix": [[2, 0], [0, 2]],
            "r": {"values": ["1", "1/3"]},
            "primes": [{"p": 3, "s": {"values": [0, 1]}, "t": {"values": [0]}}],
        }
    )
    assert f.kind == "fad"
    # This is the product form of E(3,2); the tables must agree.
    assert sigma_table(f, 12) == sigma_table(builtin_source("E", p=3, n=2), 12)

    with pytest.raises(ValueError, match="unknown system type"):
        source_from_json({"type": "magic"})
    with pytest.raises(ValueError, match="disagrees"):
        source_from_json(
            {
                "type": "fad",
                "r": {"values": [1, 2], "period": 3},
            }
        )


def test_describe_strings():
    assert builtin_source("FF", q=2).describe() == "builtin:FF,q=2"
    assert table_source((1, 2, 3)).describe() == "table[3]"
    assert fad_source(FadSpec(c=2)).describe() == "fad"


# -- random product forms -----------------------------------------------------


@st.composite
def diagonal_specs(draw):
    """Realizable product forms c^k |det(A^k - 1)| r_k with A diagonal and
    r_k = 1 + a m [m | k]: the fixed points of c-shift x toral map x a
    permutation with a m-cycles and one fixed point."""
    entries = draw(st.lists(st.sampled_from((-3, -2, 0, 2, 3, 4)), min_size=1, max_size=3))
    matrix = tuple(tuple(d if i == j else 0 for j in range(len(entries))) for i, d in enumerate(entries))
    m = draw(st.integers(1, 4))
    a = draw(st.integers(0, 2))
    r = PeriodicSequence(tuple(1 + a * m if k == m else 1 for k in range(1, m + 1)))
    return FadSpec(c=draw(st.integers(1, 3)), matrix=matrix, r=r).validate(), entries


@settings(max_examples=40, deadline=None)
@given(diagonal_specs())
def test_random_diagonal_product_forms(case):
    spec, entries = case
    src = fad_source(spec)
    X = 16
    table = sigma_table(src, X)
    assert all(sigma_eval(src, k) == table[k] for k in range(1, X + 1))
    P = census.prime_counts(table)
    assert census.orbit_counts(table) == census.euler_orbit_counts(P, X)
    assert growth_rate(src).exact == spec.c * prod(abs(d) for d in entries if abs(d) > 1)


@st.composite
def block_matrices(draw):
    """Block-diagonal integer matrices from 1x1 and 2x2 blocks with entries
    in [-3, 3], repeated blocks allowed: defective blocks, repeated
    irrational eigenvalues, roots of unity and zero eigenvalues all occur."""
    entry = st.integers(-3, 3)
    block = st.one_of(
        st.tuples(entry).map(lambda b: ((b[0],),)),
        st.tuples(entry, entry, entry, entry).map(lambda b: ((b[0], b[1]), (b[2], b[3]))),
    )
    blocks = draw(st.lists(block, min_size=1, max_size=3))
    blocks += draw(st.lists(st.sampled_from(blocks), max_size=2))
    d = sum(len(b) for b in blocks)
    matrix = [[0] * d for _ in range(d)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            matrix[at + i][at : at + len(row)] = row
        at += len(b)
    return tuple(map(tuple, matrix)), blocks


@settings(max_examples=60, deadline=None)
@given(block_matrices(), st.sampled_from((64, 128, 256)))
def test_random_block_matrix_spectra(case, precision):
    matrix, blocks = case
    src = fad_source(FadSpec(matrix=matrix), validate=False)
    rate = growth_rate(src, precision)
    spectrum = spectrum_for(src, precision)
    assert spectrum.lam == rate.value
    eigenvalues = np.linalg.eigvals(np.array(matrix, dtype=float))
    expected = prod(abs(z) for z in eigenvalues if abs(z) > 1 + 1e-6)
    assert abs(float(rate.value) / expected - 1) < 1e-6
    on_circle = [z for z in eigenvalues if abs(abs(z) - 1) < 1e-6 and z.imag > 1e-6]
    assert spectrum.m == len(on_circle)
    if all(len(b) == 1 for b in blocks):
        assert rate.exact == prod(abs(b[0][0]) for b in blocks if abs(b[0][0]) > 1)
