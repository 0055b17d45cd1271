"""Cesaro means and asymptotic constants: closed forms vs class sums vs
empirical partial means, with every frozen digit traceable to a second route."""

from fractions import Fraction

import mpmath as mp
import pytest

from orbitstat import asymptotics as asy
from orbitstat import systems
from orbitstat.systems import builtin_source, fad_spec_for, table_source


def mpf_close(a, b, tol):
    return abs(mp.mpf(a) - mp.mpf(b)) < tol


# -- gamma and containers ------------------------------------------------------


def test_gamma_value():
    assert mpf_close(asy.gamma_value(Fraction(1)), 1, 1e-30)
    assert mpf_close(asy.gamma_value(5), 24, 1e-25)
    with mp.workprec(160):
        assert abs(asy.gamma_value(Fraction(1, 2)) ** 2 - mp.pi) < mp.mpf(2) ** -100


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


def test_log_abel_mean():
    ff = builtin_source("FF", q=2)
    assert mpf_close(asy.log_abel_mean(ff, Fraction(2), "0.9", 400), 1, 1e-9)
    per = builtin_source("periodic", values=(1, 3))
    near = asy.log_abel_mean(per, Fraction(1), "0.99", 4000)
    nearer = asy.log_abel_mean(per, Fraction(1), "0.999", 12000)
    assert abs(nearer - 2) < abs(near - 2) < 0.16
    assert abs(nearer - 2) < 0.11


# -- exact class sums ----------------------------------------------------------


def test_fad_class_mean_elliptic_is_five_eighths():
    spec = fad_spec_for(builtin_source("E", p=3, n=2))
    out = asy.fad_class_mean(spec)
    assert out.exact
    assert out.value == Fraction(5, 8)


def test_fad_class_mean_matches_ca_route_for_ga():
    # Dual route: the automaton closed-form double sum and the generic
    # residue-class sum must produce the identical rational partial sum.
    spec = fad_spec_for(builtin_source("GA"))
    via_classes = asy.fad_class_mean(spec)
    via_ca = asy.ca_cesaro(2, (1,))
    assert via_classes.value == via_ca.value
    assert not via_classes.exact


def test_fad_class_mean_nonzero_theta_damps():
    # At theta = 1/2 the phase alternates; for the trivial spec the class
    # sum collapses to the average of +1 and -1 weights.
    spec = systems.FadSpec(c=2)
    out = asy.fad_class_mean(spec, theta=Fraction(1, 2))
    assert abs(out.value) < mp.mpf(2) ** -90


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
    with pytest.raises(ValueError, match="rationally dependent"):
        asy.cesaro_exact_fad(fad_spec_for(builtin_source("GM")), independent=False)


def test_cesaro_exact_fad_rejects_repeated_unit_eigenvalues():
    # GM twice: each unit-circle angle appears twice, and the Cesaro mean of
    # (4 sin^2(k theta / 2))^2 is 6, not 2^2.
    gm = systems.gm_matrix()
    d = len(gm)
    matrix = [row + [0] * d for row in gm] + [[0] * d + row for row in gm]
    spec = systems.FadSpec(matrix=matrix)
    assert systems.spectrum_for(systems.fad_source(spec, validate=False)).m == 2
    with pytest.raises(ValueError, match="repeated"):
        asy.cesaro_exact_fad(spec)


def test_cesaro_exact_fad_tol_guard():
    spec = fad_spec_for(builtin_source("GA"))
    with pytest.raises(ValueError, match="increase j_max"):
        asy.cesaro_exact_fad(spec, tol=mp.mpf(2) ** -5000)
    out = asy.cesaro_exact_fad(spec, tol=mp.mpf(1e-100))
    assert out.tail_bound < mp.mpf(1e-100)


# -- worked-example closed forms -----------------------------------------------


def test_elliptic_constants_exact_b():
    out = asy.elliptic_constants(3, 2)
    assert out.B == Fraction(5, 8)
    assert out.lam == 4
    assert out.provenance["B"] == "exact-closed-form"
    # frozen full-precision value of the five-factor product
    assert mpf_close(out.C, mp.mpf("0.72031271739897661425"), 1e-18)
    assert out.tail_bounds["C"] < 1e-30


def test_elliptic_constants_more_parameters():
    # order d and valuation e enter B; spot-check a second parameter pair
    # against the closed form computed by hand: p=5, n=2 has d=4, e=1.
    out = asy.elliptic_constants(5, 2)
    assert out.B == 1 - Fraction(1, 4) * (1 - Fraction(5, 5 * 6))
    assert float(out.C) > 0


def test_elliptic_constants_p_divides_n():
    out = asy.elliptic_constants(3, 6)
    assert out.B == 1
    assert out.C == Fraction(36, 49)
    assert out.provenance["C"] == "exact-closed-form"


def test_elliptic_constants_rejections():
    with pytest.raises(ValueError, match="p = 2"):
        asy.elliptic_constants(2, 3)
    with pytest.raises(ValueError, match="not prime"):
        asy.elliptic_constants(9, 2)
    with pytest.raises(ValueError):
        asy.elliptic_constants(3, 1)


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
    out = asy.ca_cesaro(2, (1,))
    assert abs(out.value - ref) < Fraction(1, 2**2000)
    assert out.tail_bound < mp.mpf(2) ** -600
    assert mpf_close(out.as_mpf(), mp.mpf("0.32055711746579618193"), 1e-18)


def test_ca_cesaro_telescopes_at_zero_t():
    out = asy.ca_cesaro(5, (0,))
    assert out.exact and out.value == 1
    out2 = asy.ca_cesaro(3, (0, 0))
    assert out2.exact and out2.value == 1


def test_ca_cesaro_periodic_t():
    # w = 2, p = 3: the a with t_a = 0 contributes 1/2 exactly, the other
    # the capped series sum_j 3^-(1+j+3^j).
    ref = Fraction(1, 2) + sum(Fraction(1, 3 ** (1 + j + 3**j)) for j in range(8))
    out = asy.ca_cesaro(3, (0, 1))
    assert abs(out.value - ref) < Fraction(1, 3**1000)


def test_ca_double_sum_rejections():
    with pytest.raises(ValueError, match="coprime"):
        asy.ca_cesaro(3, (0, 1, 2))
    with pytest.raises(ValueError, match="non-negative"):
        asy.ca_cesaro(2, (-1,))
    with pytest.raises(ValueError, match="integer"):
        asy.ca_cesaro(2, (Fraction(1, 2),))
    with pytest.raises(ValueError, match="not prime"):
        asy.ca_cesaro(4, (1,))
    with pytest.raises(ValueError, match="tol"):
        asy.ca_cesaro(2, (1,), tol=mp.mpf(2) ** -5000)


def test_ca_log_weighted_sum():
    ref = sum(Fraction(j, 2 ** (1 + j + 2**j)) for j in range(12))
    out = asy.ca_log_weighted_sum(2, (1,))
    assert abs(out.value - ref) < Fraction(1, 2**2000)
    assert mpf_close(out.as_mpf(), mp.mpf("0.078859329241822706538"), 1e-18)
    # t = 0 collapses to sum j p^(-1-j) = 1/(p-1)^2 (times (p-1)/w = 1 here)
    assert asy.ca_log_weighted_sum(2, (0,)).value == 1


def test_ga_constants():
    out = asy.ga_constants()
    B = asy.ca_cesaro(2, (1,)).value
    A = asy.ca_log_weighted_sum(2, (1,)).value
    assert out.B == B
    with mp.workprec(160):
        expo = mp.mpf((1 + B - A).numerator) / (1 + B - A).denominator
        assert abs(out.C - 2**expo) < mp.mpf(2) ** -100
    assert mpf_close(out.C, mp.mpf("2.3647665838224691468"), 1e-15)
    assert mpf_close(out.C / asy.gamma_value(out.B), mp.mpf("0.84738465883959301905"), 1e-15)


# -- growth rate 1 -------------------------------------------------------------


def test_lambda1_analysis_period_two():
    rep = asy.lambda1_analysis((1, 3))
    assert rep.varpi == 2
    assert rep.B == 2
    assert rep.primes == {1: 1, 2: 1}
    assert rep.leading == Fraction(1, 4)
    assert rep.C == Fraction(1, 2)


def test_lambda1_analysis_constant_and_even():
    rep1 = asy.lambda1_analysis((1,))
    assert rep1.varpi == 1 and rep1.B == 1 and rep1.leading == 1
    rep2 = asy.lambda1_analysis((0, 2))
    assert rep2.varpi == 2 and rep2.B == 1
    assert rep2.primes == {1: 0, 2: 1}
    assert rep2.leading == Fraction(1, 2)


def test_lambda1_analysis_prefers_confirmed_subperiods():
    rep = asy.lambda1_analysis((1, 3, 1, 3, 1, 3))
    assert rep.varpi == 2
    # a declared table of length 4 that only repeats at full length
    rep2 = asy.lambda1_analysis((2, 2, 2, 6))
    assert rep2.varpi == 4 and rep2.B == 3
    assert rep2.primes == {1: 2, 2: 0, 4: 1}


def test_lambda1_analysis_strict_mode():
    with pytest.raises(ValueError, match="no period detected"):
        asy.lambda1_analysis((1, 3), declared_periodic=False)
    assert asy.lambda1_analysis((1, 3, 1, 3), declared_periodic=False).varpi == 2


def test_lambda1_analysis_rejections():
    with pytest.raises(ValueError, match="not a positive integer"):
        asy.lambda1_analysis((1, 2))
    with pytest.raises(ValueError, match="ell=2"):
        asy.lambda1_analysis((3, 1))  # integer average but P_2 = -1
    with pytest.raises(ValueError, match="too short"):
        asy.lambda1_analysis(())
    with pytest.raises(ValueError, match="not a positive integer"):
        asy.lambda1_analysis((0, 0))


# -- fitting and dispatch ------------------------------------------------------


def test_predict_and_fit_ff(ff2_census):
    constants = asy.constants_for(ff2_census.source)
    fit = asy.predict_and_fit(ff2_census, constants, (20, 40, 60))
    # ratio(X) = (2^(X+1) - 1)/2^X marches to C = 2
    assert mpf_close(fit.fitted, 2, 1e-15)
    assert mpf_close(fit.fitted_C, 2, 1e-15)
    for X, predicted, ratio in fit.rows:
        assert abs(predicted - ff2_census.count_orbits(X)) <= 1
        assert 1.9 < ratio <= 2
    assert max(fit.drift()) < 1e-5


def test_predict_and_fit_guards(ff2_census):
    bad = asy.AsymptoticConstants(B=Fraction(0), C=None, lam=Fraction(2), provenance={})
    with pytest.raises(ValueError, match="B > 0"):
        asy.predict_and_fit(ff2_census, bad, (10,))
    good = asy.constants_for(ff2_census.source)
    with pytest.raises(ValueError, match="window"):
        asy.predict_and_fit(ff2_census, good, (0, 10))
    with pytest.raises(ValueError, match="window"):
        asy.predict_and_fit(ff2_census, good, (10, 1000))


def test_constants_for_ff():
    out = asy.constants_for(builtin_source("FF", q=3))
    assert out.B == 1 and out.C == Fraction(3, 2) and out.lam == 3
    assert all(v == "exact-closed-form" for v in out.provenance.values())
    assert any("census truth" in note for note in out.notes)


def test_constants_for_elliptic_and_ga():
    assert asy.constants_for(builtin_source("E", p=3, n=2)).B == Fraction(5, 8)
    assert asy.constants_for(builtin_source("GA")).B == asy.ca_cesaro(2, (1,)).value


def test_constants_for_periodic():
    out = asy.constants_for(builtin_source("periodic", values=(1, 3)))
    assert out.B == 2 and out.C == Fraction(1, 2) and out.lam == 1
    assert any("1/4" in note for note in out.notes)


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
