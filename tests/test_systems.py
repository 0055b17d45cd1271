"""Sources, sigma evaluation, growth rates, spectra, Dold validation."""

import sys
import threading
from fractions import Fraction
from math import isqrt, lcm, prod

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitstat import asymptotics, census, cli, distribution, kernels, polyops, systems
from orbitstat.numtheory import PeriodicSequence, is_prime, lte_params
from orbitstat.systems import (
    FadPrime,
    FadSpec,
    SigmaSource,
    builtin_source,
    fad_source,
    fad_spec_for,
    growth_rate,
    sigma_table,
    source_from_json,
    spectrum_for,
    table_source,
    validate_dold,
)

import oracles
from oracles import gm_blocks, seeded_matrix


# -- sigma values against the oracle formulas --------------------------------


def test_sigma_ff_matches_oracle():
    for q in (2, 3, 5):
        src = builtin_source("FF", q=q)
        table = sigma_table(src, 20)
        assert table[1:] == oracles.sigma_ff(q, 20)


def test_sigma_e_matches_oracle():
    for p, n in ((3, 2), (5, 2), (7, 10), (3, 6)):
        src = builtin_source("E", p=p, n=n)
        table = sigma_table(src, 24)
        assert table[1:] == oracles.sigma_e(p, n, 24)


def test_sigma_ga_matches_oracle():
    src = builtin_source("GA")
    table = sigma_table(src, 32)
    assert table[1:] == oracles.sigma_ga(32)
    assert table[8] == 2 ** (8 - 8)
    assert table[12] == 2 ** (12 - 4)


def test_sigma_gm_matches_independent_determinants():
    src = builtin_source("GM")
    table = sigma_table(src, 12)
    assert table[1:] == oracles.sigma_gm(12)


def test_sigma_periodic_and_table():
    src = builtin_source("periodic", values=(1, 3))
    assert sigma_table(src, 7)[1:] == [1, 3, 1, 3, 1, 3, 1]
    tab = table_source((5, 1, 2))
    assert sigma_table(tab, 3)[1:] == [5, 1, 2]
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
    with pytest.raises(ValueError, match="c must be an integer, got True"):
        FadSpec(c=True)
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
    src = SigmaSource(kind="fad", fad=spec)
    with pytest.raises(ValueError, match="non-realizable parameters at k=1"):
        sigma_table(src, 1)
    # c = 1 with s = 1 at one prime makes sigma_p fractional.
    spec2 = FadSpec(c=1, primes=(FadPrime(3, PeriodicSequence.constant(1), PeriodicSequence.constant(0)),))
    src2 = SigmaSource(kind="fad", fad=spec2)
    with pytest.raises(ValueError, match="non-realizable parameters at k=3"):
        sigma_table(src2, 3)


def test_huge_padic_exponents_are_never_raised_to():
    # p^(2^64) has no room in memory: validate reads the exponents' order,
    # sigma_table refuses a denominator wider than its numerator
    huge, zero = PeriodicSequence.constant(2**64), PeriodicSequence.constant(0)
    for s, t, k in ((huge, zero, 2), (zero, huge, 1)):
        src = fad_source(FadSpec(c=2, primes=(FadPrime(2, s, t),)))
        with pytest.raises(ValueError, match=f"^non-realizable parameters at k={k}$"):
            sigma_table(src, 4)
    assert FadSpec(primes=(FadPrime(3, PeriodicSequence((0, 2**64)), zero),)).validate()
    with pytest.raises(ValueError, match=r"^p\^s is not a gcd-sequence$"):
        FadSpec(primes=(FadPrime(3, PeriodicSequence((2**64, 0)), zero),)).validate()


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
    assert growth_rate(SigmaSource(kind="fad", fad=FadSpec(matrix=mixed))).exact is None
    diagonal = FadSpec(c=2, matrix=((big, 0, 0), (0, big + 2, 0), (0, 0, -3)))
    assert growth_rate(fad_source(diagonal)).exact == 2 * big * (big + 2) * 3


def test_growth_rate_table_is_low_confidence():
    src = table_source(tuple(2**k for k in range(1, 17)))
    rate = growth_rate(src)
    assert rate.exact is None
    assert abs(float(rate) - 2.0) < 0.1
    # the constants carry the estimate's confidence as their provenance
    assert asymptotics.constants_for(src).provenance["lambda"] == "empirical-fit"
    with pytest.raises(ValueError, match="too short"):
        growth_rate(table_source((1, 2, 4)))


# -- spectra ------------------------------------------------------------------


def test_gm_spectrum():
    rep = spectrum_for(builtin_source("GM"))
    assert rep.m == 1
    assert not rep.contains_root_of_unity
    theta = rep.unit_angles[0]
    with mp.workprec(160):
        # 2 cos theta = (3 - sqrt 5) / 2 for the unit-circle pair
        assert abs(2 * mp.cos(theta) - (3 - mp.sqrt(5)) / 2) < mp.mpf(2) ** -100
    assert abs(float(rep.lam) - float(growth_rate(builtin_source("GM")).value)) < 1e-30
    # GM's matrix is the Salem block (a, b) = (3, 3) of the generated spectra
    assert (3, 3) in SALEM_PAIRS and salem_block(3, 3) == fad_spec_for(builtin_source("GM")).matrix


def test_spectrum_of_repeated_integer_eigenvalues():
    # (x - 10)^2 has a double root that numeric root finding cannot settle;
    # integer spectra are handled exactly.
    rep = spectrum_for(builtin_source("E", p=7, n=10))
    assert rep.m == 0
    assert rep.lam == 100
    assert spectrum_for(SigmaSource(kind="fad", fad=FadSpec(c=2, matrix=((3, 0), (0, 2))))).lam == 12


def test_rotation_matrix_has_rational_angle():
    # the eigenvalues +-i are 4th roots of unity: the angle pi/2 is flagged,
    # not listed, since cesaro_exact_fad refuses such a spectrum outright
    rep = spectrum_for(SigmaSource(kind="fad", fad=FadSpec(matrix=((0, -1), (1, 0)))))
    assert rep.contains_root_of_unity
    assert rep.m == 0
    assert abs(float(rep.lam) - 1.0) < 1e-20


def test_spectrum_without_matrix_is_trivial():
    rep = spectrum_for(builtin_source("FF", q=3))
    assert rep.m == 0
    assert rep.unit_angles == ()
    assert float(rep.lam) == 3.0


def test_hyperbolic_matrix_has_empty_unit_spectrum():
    rep = spectrum_for(SigmaSource(kind="fad", fad=FadSpec(matrix=((2, 1), (1, 1)))))
    assert rep.m == 0
    assert not rep.contains_root_of_unity
    with mp.workprec(80):
        golden = (3 + mp.sqrt(5)) / 2
        assert abs(rep.lam - golden) < mp.mpf(2) ** -60


REPEATED_GOLDEN = ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1))


def test_repeated_non_integer_eigenvalue():
    # (x^2 - 3x + 1)^2: a double irrational root, which numeric root finding
    # on the whole characteristic polynomial does not settle.
    src = SigmaSource(kind="fad", fad=FadSpec(matrix=REPEATED_GOLDEN))
    rate = growth_rate(src)
    assert rate.exact is None
    with mp.workprec(160):
        assert abs(rate.value - (7 + 3 * mp.sqrt(5)) / 2) < mp.mpf(2) ** -100
    assert spectrum_for(src).m == 0


def poly_product(*factors):
    """The product of ascending coefficient lists."""
    out = [1]
    for factor in factors:
        step = [0] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                step[i + j] += a * b
        out = step
    return out


def test_brown_primes_are_found_once_across_threads(monkeypatch):
    # 6 threads take a gcd whose 206-bit root needs 5 primes, from a fresh
    # prime list and with a short switch interval: each gets the gcd, and
    # the list holds the primes below 2^61 in descending order, none twice
    # or skipped; a later gcd tests no number for primality
    monkeypatch.setattr(polyops, "_PRIMES", [2**61 - 1])
    root = 3**130
    f, g = poly_product([-root, 1], [1, 1]), poly_product([-root, 1], [3, 1])
    got = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: got.append(polyops.monic_gcd(f, g))) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[-root, 1]] * 6
    expected = [p for p in range(2**61 - 1, 2**61 - 2000, -2) if is_prime(p)][: len(polyops._PRIMES)]
    assert polyops._PRIMES == expected and len(expected) >= 5
    tested = []
    monkeypatch.setattr(polyops, "is_prime", lambda n: tested.append(n) or is_prime(n))
    assert polyops.monic_gcd(f, g) == [-root, 1] and tested == []


def test_root_split_parts():
    # x^2 (x - 1)^2 (x + 1) (x^2 + x + 1) (x - 3)^2 (x^4 - 3x^3 + 3x^2 - 3x + 1)
    f = poly_product([0, 1], [0, 1], [-1, 1], [-1, 1], [1, 1], [1, 1, 1], [-3, 1], [-3, 1])
    split = polyops.root_split(polyops.exact_split(f), 128)
    assert split.exact == 9
    assert abs(split.outside - 9) < mp.mpf(2) ** -100
    assert sorted(split.cyclotomic) == [1, 1, 2, 3]
    assert split.unit_roots == ()
    gm = polyops.root_split(polyops.exact_split(poly_product(f, systems.GM_POLY)), 128)
    assert gm.exact is None and sorted(gm.cyclotomic) == [1, 1, 2, 3]
    assert len(gm.unit_roots) == 1
    assert polyops.root_split(polyops.exact_split([0, 0, 1]), 128) == polyops.RootSplit(1, 1, (), ())


def test_an_uncertified_rooting_is_repeated_at_twice_the_bits(monkeypatch):
    # a first pass that returns one root twice leaves two disks that meet,
    # so GM's quartic is rooted again at twice its 128 + 48 bits
    split = polyops.exact_split(systems.GM_POLY)
    expected = polyops.root_split(split, 128)
    real = polyops.poly_roots
    calls = []

    def doubling_a_root_once(poly, bits):
        calls.append(bits)
        roots = real(poly, bits)
        return roots[:1] * 2 + roots[2:] if len(calls) == 1 else roots

    monkeypatch.setattr(polyops, "poly_roots", doubling_a_root_once)
    got = polyops.root_split(split, 128)
    assert calls == [176, 352]
    assert got.exact is None and got.cyclotomic == () and len(got.unit_roots) == 1
    assert abs(got.outside - expected.outside) < mp.mpf(2) ** -160
    assert abs(got.unit_roots[0] - expected.unit_roots[0]) < mp.mpf(2) ** -160


def test_a_rooting_never_certified_stops_at_the_ceiling(monkeypatch):
    # a poly_roots that always returns one root twice: GM's quartic is
    # rooted at 176 bits and doubled up to the last width below
    # MAX_ROOT_BITS, then refused with its degree and the bits reached
    roots = polyops.poly_roots(systems.GM_POLY, 176)
    calls = []

    def doubling_a_root(poly, bits):
        calls.append(bits)
        return roots[:1] * 2 + roots[2:]

    monkeypatch.setattr(polyops, "poly_roots", doubling_a_root)
    with pytest.raises(ValueError, match="degree-4 part are not certified at 180224 bits"):
        polyops.root_split(polyops.exact_split(systems.GM_POLY), 128)
    assert calls == [176 * 2**k for k in range(11)]
    assert 2 * calls[-1] > polyops.MAX_ROOT_BITS >= calls[-1]


def test_a_rooting_that_does_not_converge_is_refused_at_once(monkeypatch):
    # no retry at twice the bits: on x^8 + 2^900 x^7 + 1 each doubling
    # tripled the cost and failed again
    calls = []

    def not_converging(poly, bits):
        calls.append(bits)
        raise mp.libmp.NoConvergence("Didn't converge in maxsteps=200 steps.")

    monkeypatch.setattr(polyops, "poly_roots", not_converging)
    with pytest.raises(ValueError, match="degree-4 part are not certified at 176 bits: mpmath did not converge"):
        polyops.root_split(polyops.exact_split(systems.GM_POLY), 128)
    assert calls == [176]


@pytest.mark.parametrize("precision", (64, 128, 256))
@pytest.mark.parametrize("e", (40, 70, 100, 200))
def test_root_just_outside_the_circle_counts_toward_lambda(e, precision):
    # x^2 - S x + S has roots near S - 1 and S / (S - 1) = 1 + 1/S + ...,
    # so Lambda = S; the second root is 2^-e off the circle, so a test of
    # |root| against 1 + 2^(-precision/2) drops it when e >= precision / 2
    S = 2**e
    src = fad_source(FadSpec(matrix=((0, -S), (1, S))))
    rate = growth_rate(src, precision)
    assert rate.exact is None and spectrum_for(src, precision).m == 0
    with mp.workprec(precision + 64):
        assert abs(rate.value / S - 1) <= mp.mpf(2) ** (8 - precision)


def test_spectrum_and_growth_rate_share_lambda():
    sources = [builtin_source(name) for name in ("GM", "GA")]
    sources += [builtin_source("FF", q=3), builtin_source("E", p=3, n=2**61 - 1)]
    sources += [
        SigmaSource(kind="fad", fad=FadSpec(c=c, matrix=m))
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


def test_gm_census_is_split_once_for_its_ldp_sequence(monkeypatch):
    # the wdist and ldp sequence: census, constants on it, then rho, which
    # reads the census's growth rate
    gm = builtin_source("GM")
    calls = []
    real = polyops.root_split

    def counting(split, precision):
        calls.append(precision)
        return real(split, precision)

    monkeypatch.setattr(polyops, "root_split", counting)
    cen = census.build_census(gm, 20)
    constants = asymptotics.constants_for(gm, 128, cen=cen)
    rho = distribution.rho_measure(distribution.unit_weights(cen), cen, 20)
    assert calls == [128]
    assert cen.lam is cen.spectrum.rate
    assert cen.lam == growth_rate(gm) and constants.lam == cen.lam.value
    assert rho.support == (1,)
    # a census at another precision keeps its own split
    calls.clear()
    asymptotics.constants_for(gm, 64, cen=cen)
    assert calls == [64]


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
    assert sigma_table(b, 3)[3] == 49

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
    # every builtin's description is shorthand that reads back as the source
    for src, text in (
        (builtin_source("FF", q=2), "builtin:FF,q=2"),
        (builtin_source("E", p=3, n=2), "builtin:E,n=2,p=3"),
        (builtin_source("GA"), "builtin:GA"),
        (builtin_source("GM"), "builtin:GM"),
        (builtin_source("periodic", values=(1, 3)), "builtin:periodic,values=[1,3]"),
        (builtin_source("periodic", values=(5,)), "builtin:periodic,values=[5]"),
    ):
        assert src.describe() == text
        assert cli.parse_system(text) == src


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
    assert table[1:] == oracles.sigma_fad(spec, X)
    P = census.prime_counts(table)
    assert kernels.exp_logderiv_series(table, X) == kernels.euler_product_series(P, X)
    assert growth_rate(src).exact == spec.c * prod(abs(d) for d in entries if abs(d) > 1)


# (a, b) of the Salem quartics x^4 - a x^3 + b x^2 - a x + 1 = x^2 q(x + 1/x)
# with q(y) = y^2 - a y + (b - 2) irreducible and one root of q in (-2, 2):
# that root is 2 cos theta of one unit-circle pair, the other root gives a
# real reciprocal pair, and an irreducible q leaves no cyclotomic factor
SALEM_PAIRS = tuple(
    (a, b)
    for a in range(-4, 5)
    for b in range(-4, 5)
    if (2 - 2 * a + b) * (2 + 2 * a + b) < 0 and isqrt(a * a - 4 * b + 8) ** 2 != a * a - 4 * b + 8
)


def salem_block(a, b):
    return tuple(map(tuple, polyops.companion_matrix([1, -a, b, -a, 1])))


def salem_cosine(a, b):
    """2 cos theta: the root of y^2 - a y + (b - 2) in (-2, 2)."""
    root = (a - mp.sqrt(a * a - 4 * b + 8)) / 2
    return root if -2 < root < 2 else a - root


def salem_splits():
    return [polyops.exact_split(polyops.charpoly(salem_block(a, b))) for a, b in SALEM_PAIRS]


@pytest.mark.parametrize("precision", (64, 128, 256))
def test_root_split_is_the_same_from_the_spiral(monkeypatch, precision):
    # the second route: mpmath from its spiral alone, as before the
    # double-precision seed, on the builtins, the Salem blocks, three GM
    # blocks, x^2 - S x + S and two seeded matrices
    assert gm_blocks(1) == systems.gm_matrix()
    params = {"FF": {"q": 2}, "E": {"p": 3, "n": 2}, "periodic": {"values": (1, 3)}}
    splits = [fad_spec_for(builtin_source(name, **params.get(name, {}))).split for name in systems.BUILTIN_NAMES]
    splits += salem_splits()
    splits += [polyops.exact_split(polyops.charpoly(m)) for m in (gm_blocks(3), seeded_matrix(12), seeded_matrix(30))]
    splits += [polyops.exact_split([2**e, -(2**e), 1]) for e in (40, 70, 100, 200)]
    seeded = [polyops.root_split(split, precision) for split in splits]
    monkeypatch.setattr(polyops, "poly_roots", oracles.spiral_poly_roots)
    assert seeded == [polyops.root_split(split, precision) for split in splits]


def test_the_double_precision_seed_leaves_mpmath_six_steps():
    # from the seed, mpmath's Durand-Kerner meets its tolerance within 6
    # steps as root_split first calls it at the default precision,
    # poly_roots(f, 176); from the spiral it does not
    parts = [list(systems.GM_POLY)] + [list(split[0].reciprocal) for split in salem_splits()]
    parts += [polyops.charpoly(seeded_matrix(12)), polyops.charpoly(seeded_matrix(30))]
    for f in parts:
        seed = polyops._float_seed(f)
        assert seed is not None and len(seed) == len(f) - 1
        with mp.workprec(176 + 48):
            desc = [mp.mpf(c) for c in reversed(f)]
            mp.polyroots(desc, maxsteps=6, extraprec=176, roots_init=[mp.mpc(z) for z in seed])
            with pytest.raises(mp.mp.NoConvergence):
                mp.polyroots(desc, maxsteps=6, extraprec=176, roots_init=oracles.spiral_start(f))


def test_an_overflowing_double_pass_falls_back_to_the_spiral(monkeypatch):
    # 2^1100 has no double, so the seed gives up and mpmath starts from its
    # spiral: the same fields as the spiral route, and Lambda = S
    S = 2**1100
    assert polyops._float_seed([S, -S, 1]) is None
    split = polyops.exact_split([S, -S, 1])
    for precision in (64, 128, 256):
        got = polyops.root_split(split, precision)
        assert got.exact is None and got.cyclotomic == got.unit_roots == ()
        with mp.workprec(precision + 64):
            assert abs(got.outside / S - 1) <= mp.mpf(2) ** (8 - precision)
        with monkeypatch.context() as patch:
            patch.setattr(polyops, "poly_roots", oracles.spiral_poly_roots)
            assert polyops.root_split(split, precision) == got


@st.composite
def block_matrices(draw):
    """Block-diagonal integer matrices from 1x1 and 2x2 blocks with entries
    in [-3, 3] and Salem quartic companions, repeated blocks allowed:
    defective blocks, repeated irrational eigenvalues, roots of unity, zero
    eigenvalues and irrational unit-circle angles all occur."""
    entry = st.integers(-3, 3)
    block = st.one_of(
        st.tuples(entry).map(lambda b: ((b[0],),)),
        st.tuples(entry, entry, entry, entry).map(lambda b: ((b[0], b[1]), (b[2], b[3]))),
        st.sampled_from(SALEM_PAIRS).map(lambda ab: salem_block(*ab)),
    )
    blocks = draw(st.lists(block, min_size=1, max_size=3))
    blocks += draw(st.lists(st.sampled_from(blocks), max_size=2))
    return block_diagonal(blocks), blocks


def block_diagonal(blocks):
    d = sum(len(b) for b in blocks)
    matrix = [[0] * d for _ in range(d)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            matrix[at + i][at : at + len(row)] = row
        at += len(b)
    return tuple(map(tuple, matrix))


@settings(max_examples=60, deadline=None)
@given(block_matrices(), st.sampled_from((64, 128, 256)))
def test_random_block_matrix_spectra(case, precision):
    matrix, blocks = case
    src = SigmaSource(kind="fad", fad=FadSpec(matrix=matrix))
    rate = growth_rate(src, precision)
    spectrum = spectrum_for(src, precision)
    assert spectrum.lam == rate.value
    eigenvalues = np.linalg.eigvals(np.array(matrix, dtype=float))
    expected = prod(abs(z) for z in eigenvalues if abs(z) > 1 + 1e-6)
    assert abs(float(rate.value) / expected - 1) < 1e-6
    on_circle = [z for z in eigenvalues if abs(abs(z) - 1) < 1e-6]
    # an eigenvalue of a block of size <= 2 has degree <= 2, so a root of
    # unity among them has order <= 6 (Salem blocks have none); m counts
    # the other pairs only
    roots_of_unity = [z for z in on_circle if any(abs(z**n - 1) < 1e-6 for n in range(1, 7))]
    assert spectrum.contains_root_of_unity == bool(roots_of_unity)
    assert spectrum.m == sum(z.imag > 1e-6 for z in on_circle if z not in roots_of_unity)
    if all(len(b) == 1 for b in blocks):
        assert rate.exact == prod(abs(b[0][0]) for b in blocks if abs(b[0][0]) > 1)


def assert_split_matches_the_fraction_route(matrix, precision):
    f = polyops.charpoly(matrix)
    assert f == oracles.faddeev_charpoly([list(row) for row in matrix])
    split = polyops.exact_split(f)
    expected = oracles.fraction_split(f)
    assert [(p.multiplicity, p.cyclotomic, p.reciprocal, p.rest) for p in split] == expected
    # the parts multiply back to the square-free factors
    factors = [(poly_product(*map(polyops.cyclotomic, p.cyclotomic), p.reciprocal, p.rest), p.multiplicity)
               for p in split]
    zeros = next(i for i, c in enumerate(f) if c)
    assert factors == oracles.squarefree_factors(f[zeros:])
    got = polyops.root_split(split, precision)
    assert (got.outside, got.exact, got.cyclotomic, got.unit_roots) == oracles.threshold_root_split(
        f, precision, polyops.poly_roots
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(block_matrices(), st.sampled_from((64, 128, 256)))
def test_block_matrix_split_matches_the_fraction_route(case, precision):
    assert_split_matches_the_fraction_route(case[0], precision)


@st.composite
def integer_matrices(draw):
    d = draw(st.integers(1, 12))
    return [draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d)) for _ in range(d)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(integer_matrices(), st.sampled_from((64, 128, 256)))
def test_integer_matrix_split_matches_the_fraction_route(matrix, precision):
    assert_split_matches_the_fraction_route(matrix, precision)


@settings(max_examples=40, deadline=None)
@given(block_matrices())
def test_block_matrix_sigma_is_the_product_of_its_blocks(case):
    # |det(A^k - 1)| is multiplicative over diagonal blocks; the whole
    # matrix reaches d = 20, each block is checked against the definition
    matrix, blocks = case
    X = 32
    expected = [1] * X
    for block in set(blocks):
        spec = FadSpec(matrix=block)
        table = sigma_table(SigmaSource(kind="fad", fad=spec), X)[1:]
        assert table == oracles.sigma_fad(spec, X)
        for _ in range(blocks.count(block)):
            expected = [e * s for e, s in zip(expected, table)]
    assert sigma_table(SigmaSource(kind="fad", fad=FadSpec(matrix=matrix)), X)[1:] == expected


# (p, n) of the p-adic factors: n = None is GA's factor at p = 2, otherwise
# the S-integer map x -> n x at an odd prime p
PADIC_FACTORS = ((2, None), (3, 2), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3))


@st.composite
def padic_product_forms(draw):
    """Product forms that FadSpec.validate accepts with an integral sigma,
    each a product of realizable systems: a c-shift, an optional golden
    toral block, a permutation with a m-cycles and one fixed point
    (r_k = 1 + a m [m | k]) and one or two p-adic factors. The S-integer
    factor |n^k - 1| |n^k - 1|_p is a 1x1 block (n), r = p^(-e) and s = 1
    where d | k, with (d, e) = lte_params(n, p); GA's factor
    2^k 2^(-2^v_2(k)) is a 2 in c and t = 1."""
    c = draw(st.integers(1, 2))
    blocks = [((2, 1), (1, 1))] if draw(st.booleans()) else []
    m = draw(st.integers(1, 3))
    a = draw(st.integers(0, 1))
    r_parts = [(m, {m: Fraction(1 + a * m)})]  # (period, {residue: value}), else 1
    primes = []
    zero = PeriodicSequence.constant(0)
    for p, n in draw(st.lists(st.sampled_from(PADIC_FACTORS), min_size=1, max_size=2,
                              unique_by=lambda f: f[0])):
        if n is None:
            c *= 2
            primes.append(FadPrime(2, zero, PeriodicSequence.constant(1)))
            continue
        d, e = lte_params(n, p)
        blocks.append(((n,),))
        r_parts.append((d, {d: Fraction(1, p**e)}))
        primes.append(FadPrime(p, PeriodicSequence(tuple(int(k == d) for k in range(1, d + 1))), zero))
    period = lcm(*(q for q, _ in r_parts))
    r = PeriodicSequence(tuple(
        prod(values.get((k - 1) % q + 1, 1) for q, values in r_parts) for k in range(1, period + 1)
    ))
    matrix = block_diagonal(blocks) if blocks else None
    return FadSpec(c=c, matrix=matrix, r=r, primes=tuple(primes)).validate()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SALEM_PAIRS), padic_product_forms())
def test_salem_block_has_one_irrational_unit_pair(pair, base):
    a, b = pair
    blocks = [salem_block(a, b)] if base.matrix is None else [base.matrix, salem_block(a, b)]
    spec = FadSpec(base.c, block_diagonal(blocks), base.r, base.primes).validate()
    spectrum = spectrum_for(fad_source(spec))
    assert spectrum.m == 1 and not spectrum.contains_root_of_unity
    with mp.workprec(160):
        assert abs(2 * mp.cos(spectrum.unit_angles[0]) - salem_cosine(a, b)) < mp.mpf(2) ** -120
    B = asymptotics.cesaro_exact_fad(spec, spectrum=spectrum)
    base_mean = asymptotics.fad_class_mean(FadSpec(spec.c, None, spec.r, spec.primes))
    assert B.value == 2 * base_mean.value and B.tail_bound == 2 * base_mean.tail_bound


@settings(max_examples=60, deadline=None)
@given(padic_product_forms())
def test_identities_on_padic_product_forms(spec):
    src = fad_source(spec)
    X = 16
    table = sigma_table(src, X)
    assert table[1:] == oracles.sigma_fad(spec, X)
    assert validate_dold(table[1:]).ok
    cen = census.build_census(src, X)
    assert cen.verify_euler()
    # the brute-force oracle walks every orbit and recurses once per prime,
    # so it runs at the largest X <= 8 where both counts stay small
    small = max([1] + [x for x in range(1, 9) if cen.count_orbits(x) <= 3000 and cen.count_primes(x) <= 300])
    for x in (small, X):
        lemma, via_pmf = distribution.expected_w(cen, x)
        assert lemma == via_pmf
    bc = distribution.joint_census(distribution.unit_weights(cen), small, census=cen)
    labeled = {ell: [Fraction(1)] * cen.primes[ell] for ell in range(1, small + 1)}
    expected = [{} for _ in range(small + 1)]
    for (n, value), count in oracles.brute_weighted_census(labeled, small).items():
        expected[n][int(value)] = count
    assert bc.D == 1 and list(bc.rows) == expected
    assert spectrum_for(src).lam == growth_rate(src).value
