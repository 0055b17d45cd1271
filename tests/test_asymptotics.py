"""Cesaro means and asymptotic constants: closed forms vs class sums vs
empirical partial means, with every frozen digit traceable to a second route."""

from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest

from orbitstat import asymptotics as asy
from orbitstat import polyops, systems
from orbitstat.numtheory import MAX_PERIOD, PeriodicSequence
from orbitstat.polyops import to_mpf
from orbitstat.census import build_census
from orbitstat.systems import builtin_source, fad_spec_for, table_source
import oracles


def mpf_close(a, b, tol):
    return abs(mp.mpf(a) - mp.mpf(b)) < tol


# -- containers ------------------------------------------------------------------


def test_truncated_sum_container():
    t = asy.TruncatedSum(Fraction(3, 4), mp.mpf(0))
    assert t.exact and float(t) == 0.75
    assert mpf_close(t.as_mpf(), 0.75, 1e-30)
    u = asy.TruncatedSum(Fraction(1, 3), mp.mpf(1e-50))
    assert not u.exact


# -- empirical Cesaro means ----------------------------------------------------


def test_cesaro_empirical_ff_is_constant_one():
    src = builtin_source("FF", q=2)
    for X in (1, 7, 60):
        assert asy.cesaro_empirical(src, Fraction(2), X) == 1


def test_cesaro_empirical_periodic_hits_mean_on_full_periods():
    src = builtin_source("periodic", values=(1, 3))
    assert asy.cesaro_empirical(src, Fraction(1), 400) == 2
    # odd cutoffs approach 2 from below
    v = asy.cesaro_empirical(src, Fraction(1), 399)
    assert 1.99 < v < 2


def test_cesaro_empirical_converges_to_class_mean():
    src = builtin_source("E", p=3, n=2)
    errs = []
    for X in (50, 200, 800):
        v = asy.cesaro_empirical(src, Fraction(4), X)
        errs.append(abs(v - mp.mpf(5) / 8))
    assert errs[0] < 0.03 and errs[1] < 0.01 and errs[2] < 0.002
    assert errs[2] < errs[1] < errs[0]


def test_cesaro_empirical_accepts_growth_rate_and_mpf():
    src = builtin_source("GM")
    rate = systems.growth_rate(src)
    v1 = asy.cesaro_empirical(src, rate, 40)
    v2 = asy.cesaro_empirical(src, rate.value, 40)
    assert mpf_close(v1, v2, 1e-25)
    with pytest.raises(ValueError):
        asy.cesaro_empirical(src, rate, 0)


def test_cesaro_empirical_refuses_nonpositive_growth_rates():
    src = builtin_source("FF", q=2)
    for lam in (0, -2, Fraction(-1, 2), mp.mpf(0), mp.mpf(-3)):
        with pytest.raises(ValueError, match="growth rate must be positive"):
            asy.cesaro_empirical(src, lam, 10)


# -- exact class sums ----------------------------------------------------------


def test_fad_class_mean_elliptic_is_five_eighths():
    spec = fad_spec_for(builtin_source("E", p=3, n=2))
    out = asy.fad_class_mean(spec)
    assert out.exact
    assert out.value == Fraction(5, 8)
    # Periods of r divisible by p pin v_p(k) on some residues (the forced
    # valuation branch); r_k = gcd(k, period), s constant, t = 0, c = p.
    zero = PeriodicSequence.constant(0)
    for r, p, s, B in (
        ((1, 2), 2, 1, Fraction(5, 6)),
        ((1, 1, 3), 3, 1, Fraction(11, 12)),
        ((1, 2, 1, 4), 2, 2, Fraction(37, 56)),
    ):
        spec = systems.FadSpec(
            c=p, r=PeriodicSequence(r), primes=(systems.FadPrime(p, PeriodicSequence.constant(s), zero),)
        ).validate()
        out = asy.fad_class_mean(spec)
        assert out.exact and out.value == B
        assert abs(asy.cesaro_empirical(systems.fad_source(spec), p, 4096) - to_mpf(B)) < 1e-3


def automaton_mean(p, t):
    """fad_class_mean of sigma_k = p^k p^(-t_k p^(v_p(k)))."""
    zero = PeriodicSequence.constant(0)
    return asy.fad_class_mean(systems.FadSpec(c=p, primes=(systems.FadPrime(p, zero, PeriodicSequence(t)),)))


def test_fad_class_mean_matches_ca_route_for_ga():
    # Dual route: the automaton closed-form double sum and the generic
    # residue-class sum must produce the identical rational partial sum.
    spec = fad_spec_for(builtin_source("GA"))
    via_classes = asy.fad_class_mean(spec)
    via_ca, _ = oracles.ca_cesaro(2, (1,))
    assert via_classes.value == via_ca
    assert not via_classes.exact


# the automaton's double sum needs the period of t coprime to p, so p = 2
# takes only the constant t
@pytest.mark.parametrize(
    "p, t", [(p, t) for p in (2, 3, 5) for t in ((1,), (0, 1), (2, 1)) if gcd(len(t), p) == 1]
)
def test_fad_class_mean_matches_ca_cesaro(p, t):
    out = automaton_mean(p, t)
    value, tail = oracles.ca_cesaro(p, t)
    assert abs(to_mpf(out.value - value)) <= out.tail_bound + to_mpf(tail)


def test_fad_class_mean_reads_the_shortest_periods():
    # each sequence repeats one value, so the residues walked are those of
    # the period-1 twin: same B, same tail bound, and no 10^7-class walk
    def spec(a, b, c):
        return systems.FadSpec(c=2, primes=(
            systems.FadPrime(2, PeriodicSequence((0,) * a), PeriodicSequence((1,) * b)),
            systems.FadPrime(3, PeriodicSequence((0,) * c), PeriodicSequence((0,) * c)),
        ))

    padded, twin = asy.fad_class_mean(spec(101, 103, 1009)), asy.fad_class_mean(spec(1, 1, 1))
    assert (padded.value, padded.tail_bound) == (twin.value, twin.tail_bound)
    assert twin.value == asy.fad_class_mean(fad_spec_for(builtin_source("GA"))).value


def test_fad_class_mean_refuses_long_walks():
    # shortest periods 367 and 373, coprime: 136891 classes, above 2^17 and
    # above either period
    r = PeriodicSequence((1,) * 366 + (367,))
    s = PeriodicSequence((0,) * 372 + (1,))
    spec = systems.FadSpec(c=2, r=r, primes=(systems.FadPrime(2, s, PeriodicSequence.constant(0)),))
    with pytest.raises(ValueError, match="^136891 residue classes, the lcm of the shortest periods"):
        asy.fad_class_mean(spec)
    # one long period alone is walked: the walk stays linear in the spec
    long = PeriodicSequence((1,) * (MAX_PERIOD + 6) + (2,))
    assert asy.fad_class_mean(systems.FadSpec(r=long)).value == 1 + Fraction(1, MAX_PERIOD + 7)


def test_fad_class_mean_caps_huge_exponents():
    # every term past the exponent cap goes to the tail, whichever path of
    # the local factor it takes: the geometric one (t = 0), the forced
    # valuation (r's period even) and the truncated series
    huge, zero = PeriodicSequence.constant(2**64), PeriodicSequence.constant(0)
    geometric = asy.fad_class_mean(systems.FadSpec(c=2, primes=(systems.FadPrime(2, huge, zero),)))
    assert geometric.value == Fraction(1, 2) and 0 < geometric.tail_bound < mp.mpf(2) ** -2048
    for r in (PeriodicSequence((1, 2)), PeriodicSequence.constant(1)):
        tiny = asy.fad_class_mean(systems.FadSpec(c=2, r=r, primes=(systems.FadPrime(2, zero, huge),)))
        assert tiny.value == 0 and 0 < tiny.tail_bound < mp.mpf(2) ** -2048
    # growth rate 1 still refuses the exponent, after the walk
    with pytest.raises(ValueError, match="nonzero p-adic exponent"):
        asy.constants_for(systems.fad_source(systems.FadSpec(primes=(systems.FadPrime(3, huge, zero),))))


def test_cesaro_exact_fad_gm():
    out = asy.cesaro_exact_fad(fad_spec_for(builtin_source("GM")))
    assert out.exact
    assert out.value == Fraction(1058, 781)


def test_cesaro_exact_fad_uses_doubling_per_unit_pair():
    # Same spec with the matrix stripped: L(0) must be exactly half.
    gm = fad_spec_for(builtin_source("GM"))
    no_matrix = systems.FadSpec(c=gm.c, matrix=None, r=gm.r, primes=gm.primes)
    half = asy.fad_class_mean(no_matrix)
    assert asy.cesaro_exact_fad(fad_spec_for(builtin_source("GM"))).value == 2 * half.value


def test_cesaro_exact_fad_rejects_roots_of_unity():
    spec = systems.FadSpec(matrix=((0, -1), (1, 0)))
    with pytest.raises(ValueError, match="fold the resulting periodic"):
        asy.cesaro_exact_fad(spec)


def test_cesaro_exact_fad_rejects_dependent_angles():
    # Companions of charpoly(GM^k), k = 1, 2: distinct angles theta and
    # 2 theta. Adding k = 3 (angle 2 pi - 3 theta) makes the Cesaro mean of
    # the oscillatory factor 6, not 2^3, so m >= 2 is refused.
    gm = systems.gm_matrix()
    blocks = [polyops.companion_matrix(polyops.charpoly(power)) for power in (gm, oracles.mat_mul_int(gm, gm))]
    matrix = [row + [0] * 4 for row in blocks[0]] + [[0] * 4 + row for row in blocks[1]]
    spec = systems.FadSpec(matrix=matrix).validate()
    assert systems.spectrum_for(systems.fad_source(spec)).m == 2
    with pytest.raises(ValueError, match="repeated or rationally dependent"):
        asy.cesaro_exact_fad(spec)


def test_cesaro_exact_fad_rejects_repeated_unit_eigenvalues():
    # GM twice: each unit-circle angle appears twice, and the Cesaro mean of
    # (4 sin^2(k theta / 2))^2 is 6, not 2^2.
    gm = systems.gm_matrix()
    d = len(gm)
    matrix = [row + [0] * d for row in gm] + [[0] * d + row for row in gm]
    spec = systems.FadSpec(matrix=matrix)
    assert systems.spectrum_for(systems.SigmaSource(kind="fad", fad=spec)).m == 2
    with pytest.raises(ValueError, match="repeated"):
        asy.cesaro_exact_fad(spec)


def test_cesaro_exact_fad_tail_bound():
    out = asy.cesaro_exact_fad(fad_spec_for(builtin_source("GA")))
    assert out.tail_bound < mp.mpf(1e-100)


# -- worked-example closed forms -----------------------------------------------


def test_elliptic_constants_exact_b():
    out = asy.constants_for(builtin_source("E", p=3, n=2))
    assert out.B == Fraction(5, 8)
    assert out.lam == 4
    assert out.provenance["B"] == "exact-closed-form"
    # frozen full-precision value of the five-factor product
    assert mpf_close(out.C, mp.mpf("0.72031271739897661425"), 1e-18)
    assert out.tail_bounds["C"] < 1e-30


def test_elliptic_constants_more_parameters():
    # order d and valuation e enter B; spot-check a second parameter pair
    # against the closed form computed by hand: p=5, n=2 has d=4, e=1.
    out = asy.constants_for(builtin_source("E", p=5, n=2))
    assert out.B == 1 - Fraction(1, 4) * (1 - Fraction(5, 5 * 6))
    assert float(out.C) > 0


def test_elliptic_constants_p_divides_n():
    out = asy.constants_for(builtin_source("E", p=3, n=6))
    assert out.B == 1
    assert out.C == Fraction(36, 49)
    assert out.provenance["C"] == "exact-closed-form"


@pytest.mark.parametrize("p, n", ((3, 2), (5, 2), (7, 2), (5, 3), (7, 10), (3, 6)))
def test_elliptic_b_matches_closed_form(p, n):
    out = asy.constants_for(builtin_source("E", p=p, n=n))
    assert out.B == oracles.elliptic_b(p, n)
    assert out.provenance["B"] == "exact-closed-form"


def test_qp_product():
    v = asy.qp_product(Fraction(4), 3)
    assert mpf_close(v, mp.mpf("1.6724643924686861275"), 1e-18)
    assert asy.qp_product(Fraction(10), 3) < v
    assert asy.qp_product(Fraction(4), 5) > 1
    with pytest.raises(ValueError, match="x > 1"):
        asy.qp_product(Fraction(1), 3)
    with pytest.raises(ValueError, match="not prime"):
        asy.qp_product(Fraction(4), 6)


def test_ca_cesaro_against_direct_series():
    # Independent rederivation: B = sum_j 2^-(1+j+2^j), here to one term
    # beyond the implementation cap so the difference is the dropped tail.
    ref = sum(Fraction(1, 2 ** (1 + j + 2**j)) for j in range(12))
    out = asy.growth_law(builtin_source("GA"))
    assert abs(out.B - ref) < Fraction(1, 2**2000)
    assert out.tail_bounds["B"] < mp.mpf(2) ** -600
    assert mpf_close(to_mpf(out.B), mp.mpf("0.32055711746579618193"), 1e-18)


def test_ca_cesaro_telescopes_at_zero_t():
    out = automaton_mean(5, (0,))
    assert out.exact and out.value == 1
    out2 = automaton_mean(3, (0, 0))
    assert out2.exact and out2.value == 1


def test_ca_cesaro_periodic_t():
    # w = 2, p = 3: the a with t_a = 0 contributes 1/2 exactly, the other
    # the capped series sum_j 3^-(1+j+3^j).
    ref = Fraction(1, 2) + sum(Fraction(1, 3 ** (1 + j + 3**j)) for j in range(8))
    out = automaton_mean(3, (0, 1))
    assert abs(out.value - ref) < Fraction(1, 3**1000)


def test_ca_double_sum_rejections():
    with pytest.raises(ValueError, match="coprime"):
        asy.ca_log_weighted_sum(3, (0, 1, 2))
    with pytest.raises(ValueError, match="non-negative"):
        asy.ca_log_weighted_sum(2, (-1,))
    with pytest.raises(ValueError, match="integer"):
        asy.ca_log_weighted_sum(2, (Fraction(1, 2),))
    with pytest.raises(ValueError, match="not prime"):
        asy.ca_log_weighted_sum(4, (1,))


def test_ca_log_weighted_sum():
    ref = sum(Fraction(j, 2 ** (1 + j + 2**j)) for j in range(12))
    out = asy.ca_log_weighted_sum(2, (1,))
    assert abs(out.value - ref) < Fraction(1, 2**2000)
    assert mpf_close(out.as_mpf(), mp.mpf("0.078859329241822706538"), 1e-18)
    # t = 0 collapses to sum j p^(-1-j) = 1/(p-1)^2 (times (p-1)/w = 1 here)
    assert asy.ca_log_weighted_sum(2, (0,)).value == 1


def test_ga_constants():
    out = asy.constants_for(builtin_source("GA"))
    B, _ = oracles.ca_cesaro(2, (1,))
    A = asy.ca_log_weighted_sum(2, (1,)).value
    assert out.B == B
    with mp.workprec(160):
        expo = mp.mpf((1 + B - A).numerator) / (1 + B - A).denominator
        assert abs(out.C - 2**expo) < mp.mpf(2) ** -100
        assert mpf_close(out.C / mp.gamma(to_mpf(out.B)), mp.mpf("0.84738465883959301905"), 1e-15)
    assert mpf_close(out.C, mp.mpf("2.3647665838224691468"), 1e-15)


# -- growth rate 1 -------------------------------------------------------------


def test_lambda1_analysis_period_two():
    rep = asy.lambda1_analysis((1, 3))
    assert rep.B == 2
    assert rep.primes == {1: 1, 2: 1}
    assert rep.leading == Fraction(1, 4)
    assert rep.C == Fraction(1, 2)


def test_lambda1_analysis_constant_and_even():
    rep1 = asy.lambda1_analysis((1,))
    assert rep1.primes == {1: 1} and rep1.B == 1 and rep1.leading == 1
    rep2 = asy.lambda1_analysis((0, 2))
    assert rep2.B == 1
    assert rep2.primes == {1: 0, 2: 1}
    assert rep2.leading == Fraction(1, 2)


def test_lambda1_analysis_prefers_confirmed_subperiods():
    # the prime counts run over the divisors of the minimal period
    assert asy.lambda1_analysis((1, 3, 1, 3, 1, 3)).primes == {1: 1, 2: 1}
    # a declared table of length 4 that only repeats at full length
    rep2 = asy.lambda1_analysis((2, 2, 2, 6))
    assert rep2.B == 3
    assert rep2.primes == {1: 2, 2: 0, 4: 1}


def test_lambda1_analysis_reads_the_minimal_period():
    # a given period that repeats a shorter one is read at the shorter one
    assert asy.lambda1_analysis((1, 3, 1, 3)).primes.keys() == {1, 2}


def test_lambda1_analysis_rejections():
    with pytest.raises(ValueError, match="not a positive integer"):
        asy.lambda1_analysis((1, 2))
    with pytest.raises(ValueError, match="ell=2"):
        asy.lambda1_analysis((3, 1))  # integer average but P_2 = -1
    with pytest.raises(ValueError, match="too short"):
        asy.lambda1_analysis(())
    with pytest.raises(ValueError, match="not a positive integer"):
        asy.lambda1_analysis((0, 0))


def test_lambda1_analysis_refuses_prime_counts_off_the_period():
    # the period passes Dold, averages 5 and is minimal, but P_4 = 1 and 4
    # does not divide 6: no orbit of length 4 can recur with period 6
    period = (1, 1, 1, 5, 21, 1)
    assert systems.validate_dold(period).primes[3] == 1
    with pytest.raises(ValueError, match="^nonzero prime count at ell=4 not dividing the period$"):
        asy.lambda1_analysis(period)


# -- fitting and dispatch ------------------------------------------------------


def test_predict_and_fit_ff(ff2_census):
    # the unnamed FF(2) gets C fitted at the top of its census, where
    # ratio(X) = (2^(X+1) - 1)/2^X marches to the closed form C = 2
    predicted = asy.constants_for(ff2_census.source)
    twin = systems.fad_source(systems.FadSpec(c=2))
    fitted = asy.constants_for(twin, cen=build_census(twin, 60)).C
    assert mpf_close(fitted, 2, 1e-15)
    for X in (20, 40, 60):
        assert abs(predicted.C * 2**X - ff2_census.count_orbits(X)) <= 1
        ratio = asy.constants_for(twin, cen=build_census(twin, X)).C
        assert 1.9 < ratio <= 2
        assert abs(ratio - fitted) < 1e-5


def test_predict_and_fit_guards():
    # the growth law needs B > 0; a zero table has B = 0
    with pytest.raises(ValueError, match="B > 0"):
        asy.constants_for(table_source((0,) * 10))


def test_constants_for_ff():
    out = asy.constants_for(builtin_source("FF", q=3))
    assert out.B == 1 and out.C == Fraction(3, 2) and out.lam == 3
    assert all(v == "exact-closed-form" for v in out.provenance.values())
    assert any("census truth" in note for note in out.notes)


def test_constants_for_elliptic_and_ga():
    assert asy.constants_for(builtin_source("E", p=3, n=2)).B == Fraction(5, 8)
    assert asy.constants_for(builtin_source("GA")).B == oracles.ca_cesaro(2, (1,))[0]


# builtins and their JSON product forms
TWINS = (
    ("FF", {"q": 2}, {"type": "fad", "c": 2}),
    (
        "E",
        {"p": 3, "n": 2},
        {
            "type": "fad",
            "matrix": [[2, 0], [0, 2]],
            "r": {"values": [1, "1/3"]},
            "primes": [{"p": 3, "s": {"values": [0, 1]}, "t": {"values": [0]}}],
        },
    ),
    ("GA", {}, {"type": "fad", "c": 2, "primes": [{"p": 2, "s": {"values": [0]}, "t": {"values": [1]}}]}),
)


@pytest.mark.parametrize("name, params, twin", TWINS)
def test_growth_law_reads_no_builtin_names(name, params, twin):
    named = asy.growth_law(builtin_source(name, **params))
    unnamed = asy.growth_law(systems.source_from_json(twin))
    assert named.C is None and unnamed.C is None
    assert type(named.B) is type(unnamed.B) is Fraction
    assert type(named.lam) is type(unnamed.lam) is Fraction
    assert (named.B, named.lam, named.provenance, named.tail_bounds) == (
        unnamed.B, unnamed.lam, unnamed.provenance, unnamed.tail_bounds
    )


def test_constants_for_periodic():
    out = asy.constants_for(builtin_source("periodic", values=(1, 3)))
    assert out.B == 2 and out.C == Fraction(1, 2) and out.lam == 1
    assert any("1/4" in note for note in out.notes)


def test_growth_rate_one_comes_from_the_product_form():
    # the builtin's product form, unnamed and with a nilpotent matrix factor
    # (|det(A^k - 1)| = 1), gets the same exact constants at any census
    builtin = asy.constants_for(builtin_source("periodic", values=(1, 3)))
    r = PeriodicSequence((1, 3))
    for spec in (systems.FadSpec(r=r), systems.FadSpec(matrix=((0, 1), (0, 0)), r=r)):
        src = systems.fad_source(spec)
        for cen in (None, build_census(src, 200)):
            out = asy.constants_for(src, cen=cen)
            assert (out.B, out.C, out.lam, out.notes) == (builtin.B, builtin.C, builtin.lam, builtin.notes)
            assert set(out.provenance.values()) == {"exact-closed-form"}
    # one period of r is read: (2, 2, 2, 6) has period 4 and B = 3
    out = asy.constants_for(systems.fad_source(systems.FadSpec(r=PeriodicSequence((2, 2, 2, 6)))))
    assert out.B == 3 and out.C == Fraction(1, 4)


def test_growth_rate_one_is_analysed_once_per_constants_for(monkeypatch):
    calls = []
    analysis = asy.lambda1_analysis

    def counting(period):
        calls.append(tuple(period))
        return analysis(period)

    monkeypatch.setattr(asy, "lambda1_analysis", counting)
    nilpotent_twin = {"type": "fad", "matrix": [[0, 1], [0, 0]], "r": {"values": [1, 3]}}
    for src in (builtin_source("periodic", values=(1, 3)), systems.source_from_json(nilpotent_twin)):
        calls.clear()
        out = asy.constants_for(src)
        assert calls == [(1, 3)]
        assert (out.B, out.C, out.lam) == (2, Fraction(1, 2), 1)
        # growth_law alone never analyses the period: B is r's class mean
        calls.clear()
        assert asy.growth_law(src).B == 2 and calls == []


def test_growth_rate_one_refuses_padic_exponents():
    zero = PeriodicSequence.constant(0)
    for s, t in ((PeriodicSequence.constant(1), zero), (zero, PeriodicSequence((0, 1)))):
        src = systems.fad_source(systems.FadSpec(primes=(systems.FadPrime(3, s, t),)))
        with pytest.raises(ValueError, match="nonzero p-adic exponent"):
            asy.constants_for(src)


def test_constants_for_gm():
    out = asy.constants_for(builtin_source("GM"))
    assert out.B == Fraction(1058, 781)
    assert out.provenance["B"] == "exact-closed-form"
    assert out.provenance["C"] == "empirical-fit"
    assert float(out.C) > 0
    assert any("low-confidence" in note for note in out.notes)


def test_constants_for_raw_table_uses_fit():
    src = table_source(tuple(2**k for k in range(1, 17)))
    out = asy.constants_for(src)
    assert all(v == "empirical-fit" for v in out.provenance.values())
    assert float(out.B) > 0 and float(out.C) > 0
    assert any("low-confidence" in note for note in out.notes)
