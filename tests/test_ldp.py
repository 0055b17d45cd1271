"""Rate functions: closed forms vs the numeric Legendre transform, plus
Chebyshev bounds that must dominate every exact census tail."""

from fractions import Fraction

import mpmath as mp
import pytest

from orbitstat import distribution, ldp
from orbitstat import (
    AsymptoticConstants,
    DiscreteMeasure,
    RateFunction,
    chebyshev_bound,
    constants_for,
    joint_census,
    legendre_rate,
    poisson_rate,
    subset_rate,
    tail_report,
    unit_weights,
    w_pmf,
)
from orbitstat.ldp import _DEFAULT_THETA_GRID
from orbitstat.polyops import to_mpf


def measure(d):
    return DiscreteMeasure.from_dict({Fraction(k): Fraction(v) for k, v in d.items()})


# -- closed forms --------------------------------------------------------------


def test_poisson_rate_values():
    assert poisson_rate(1) == 0
    assert poisson_rate(0) == 1
    assert poisson_rate(-2) == mp.inf
    with mp.workprec(100):
        assert abs(poisson_rate(mp.e) - 1) < mp.mpf(2) ** -70
        # strictly convex with minimum at x = 1
        xs = [mp.mpf(q) / 4 for q in range(1, 21)]
        vals = [poisson_rate(x) for x in xs]
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert b < (a + c) / 2 + mp.mpf(2) ** -60
        assert min(vals) == poisson_rate(1)


def test_subset_rate_reduces_to_poisson():
    with mp.workprec(100):
        for q in range(1, 12):
            x = mp.mpf(q) / 3
            assert abs(subset_rate(x, 1, 1) - poisson_rate(x)) < mp.mpf(2) ** -70


def test_subset_rate_zero_at_its_mean():
    # the rate vanishes at x = lam * r and only there
    lam, r = Fraction(3), Fraction(1, 4)
    with mp.workprec(100):
        assert abs(subset_rate(lam * r, lam, r)) < mp.mpf(2) ** -70
        assert subset_rate(lam * r + Fraction(1, 2), lam, r) > 0
        assert subset_rate(Fraction(1, 8), lam, r) > 0
    assert subset_rate(0, lam, r) == float(r)
    assert subset_rate(1, lam, 0) == mp.inf
    assert subset_rate(-1, lam, r) == mp.inf


def test_subset_rate_validation():
    with pytest.raises(ValueError, match="positive"):
        subset_rate(1, 0, Fraction(1, 2))
    with pytest.raises(ValueError, match="r must lie"):
        subset_rate(1, 1, 2)


# -- the Legendre solver ---------------------------------------------------------


def test_legendre_matches_poisson_closed_form():
    rho = measure({1: 1})
    with mp.workprec(100):
        for q in range(1, 51):
            x = mp.mpf(q) / 10
            diff = abs(legendre_rate(rho, x) - poisson_rate(x))
            assert diff < 1e-8


def test_legendre_matches_subset_closed_form():
    lam, r = Fraction(2), Fraction(1, 3)
    rho = measure({0: 1 - r, lam: r})
    with mp.workprec(100):
        for q in range(1, 21):
            x = mp.mpf(q) / 5
            diff = abs(legendre_rate(rho, x) - subset_rate(x, lam, r))
            assert diff < 1e-8
        assert abs(legendre_rate(rho, lam * r)) < 1e-9


def test_legendre_boundary_cases():
    unit = measure({1: 1})
    assert legendre_rate(unit, 0) == 1  # mass strictly off zero
    assert legendre_rate(unit, -1) == mp.inf  # no negative atoms
    sub = measure({0: Fraction(3, 4), 2: Fraction(1, 4)})
    assert legendre_rate(sub, 0) == Fraction(1, 4)
    origin = measure({0: 1})
    assert legendre_rate(origin, 0) == 0
    assert legendre_rate(origin, Fraction(1, 2)) == mp.inf
    assert legendre_rate(origin, -3) == mp.inf


def test_legendre_interior_zero_with_mixed_signs():
    rho = measure({-1: Fraction(1, 2), 1: Fraction(1, 2)})
    with mp.workprec(100):
        assert abs(legendre_rate(rho, 0)) < 1e-9
        # symmetric measure: even rate function
        assert abs(legendre_rate(rho, Fraction(1, 2)) - legendre_rate(rho, Fraction(-1, 2))) < 1e-8


def test_legendre_vanishes_at_the_mean():
    rho = measure({Fraction(1, 2): Fraction(1, 3), 2: Fraction(2, 3)})
    mean = rho.mean()
    with mp.workprec(100):
        assert abs(legendre_rate(rho, mean)) < 1e-9
        assert legendre_rate(rho, mean + 1) > 0


def test_legendre_validation():
    with pytest.raises(ValueError, match="tol"):
        legendre_rate(measure({1: 1}), 1, tol=mp.mpf(0))
    with pytest.raises(ValueError, match="total mass"):
        legendre_rate(measure({1: Fraction(1, 2)}), 1)


def test_rate_function_dispatch():
    rho = measure({1: 1})
    with mp.workprec(100):
        assert RateFunction.poisson().evaluate(2) == poisson_rate(2)
        assert RateFunction.subset(2, Fraction(1, 3)).evaluate(1) == subset_rate(1, 2, Fraction(1, 3))
        got = RateFunction.legendre(rho).evaluate(2)
        assert abs(got - poisson_rate(2)) < 1e-8


# -- Chebyshev bounds -------------------------------------------------------------


def test_chebyshev_single_theta_worked_example(ff2_census):
    bc = joint_census(unit_weights(ff2_census), 2, census=ff2_census)
    pmf = w_pmf(bc, 2)
    with mp.workprec(100):
        bound = chebyshev_bound(lambda t: pmf.laplace(t), 2, (mp.log(2),))
        # E[2^W] = 15/7, so the bound is log(15/7) - 2 log 2 = log(15/28)
        assert abs(bound - mp.log(mp.mpf(15) / 28)) < mp.mpf(2) ** -70
        # and it dominates the exact tail P[W >= 2] = 1/7
        assert bound >= mp.log(mp.mpf(1) / 7)


def test_chebyshev_grid_refinement_monotone(ff2_census):
    bc = joint_census(unit_weights(ff2_census), 10, census=ff2_census)
    pmf = w_pmf(bc, 10)
    coarse = list(_DEFAULT_THETA_GRID[::4])
    fine = list(_DEFAULT_THETA_GRID)
    b_coarse = chebyshev_bound(lambda t: pmf.laplace(t), 4, coarse)
    b_fine = chebyshev_bound(lambda t: pmf.laplace(t), 4, fine)
    assert b_fine <= b_coarse
    assert chebyshev_bound(lambda t: pmf.laplace(t), 0, fine) >= 0


def test_chebyshev_validation():
    with pytest.raises(ValueError, match="non-empty"):
        chebyshev_bound(lambda t: 1, 1, ())
    with pytest.raises(ValueError, match="positive"):
        chebyshev_bound(lambda t: 1, 1, (mp.mpf(0),))


# -- tail reports -----------------------------------------------------------------


def test_tail_report_rows(ff2_census):
    bc = joint_census(unit_weights(ff2_census), 30, census=ff2_census)
    constants = constants_for(ff2_census.source)
    rep = tail_report(bc, constants, (Fraction(1),), RateFunction.poisson(), xs=(10, 20, 30))
    assert len(rep.rows) == 3
    with mp.workprec(100):
        for row in rep.rows:
            scale = mp.log(row.X)  # B = 1
            assert abs(row.threshold - 2 * scale) < mp.mpf(2) ** -70
            # exact tail never beats its Chebyshev bound
            assert row.log_p <= row.chebyshev
            assert abs(row.normalized - (-row.log_p / scale)) < mp.mpf(2) ** -70
            assert abs(row.rate_value - poisson_rate(2)) < mp.mpf(2) ** -70


def test_tail_report_empty_tail_marker(ff2_census):
    bc = joint_census(unit_weights(ff2_census), 30, census=ff2_census)
    constants = constants_for(ff2_census.source)
    rep = tail_report(bc, constants, (Fraction(5),), RateFunction.poisson(), xs=(30,))
    row = rep.rows[0]
    assert row.log_p == mp.ninf
    assert row.normalized == mp.inf


def test_tail_report_default_xs(ff2_census):
    bc = joint_census(unit_weights(ff2_census), 30, census=ff2_census)
    constants = constants_for(ff2_census.source)
    rep = tail_report(bc, constants, (Fraction(1),), RateFunction.poisson())
    assert tuple(row.X for row in rep.rows) == (10, 20, 30)


def test_tail_report_refuses_growth_rate_one(per13_census):
    bc = joint_census(unit_weights(per13_census), 12, census=per13_census)
    constants = constants_for(per13_census.source)
    with pytest.raises(ValueError, match="growth rate 1"):
        tail_report(bc, constants, (Fraction(1),), RateFunction.poisson())


def test_tail_report_guards(ff2_census):
    bc = joint_census(unit_weights(ff2_census), 12, census=ff2_census)
    bad = AsymptoticConstants(B=Fraction(0), C=None, lam=Fraction(2), provenance={})
    with pytest.raises(ValueError, match="positive"):
        tail_report(bc, bad, (Fraction(1),), RateFunction.poisson())
    good = constants_for(ff2_census.source)
    with pytest.raises(ValueError, match="outside census"):
        tail_report(bc, good, (Fraction(1),), RateFunction.poisson(), xs=(40,))


def test_tail_report_refuses_negative_epsilon(ff2_census):
    # the upper-tail exponent I(1+eps) holds only for 1 + eps >= 1
    bc = joint_census(unit_weights(ff2_census), 12, census=ff2_census)
    constants = constants_for(ff2_census.source)
    for eps in (Fraction(-1), Fraction(-1, 10**9), -0.5):
        with pytest.raises(ValueError, match="epsilon must be at least 0"):
            tail_report(bc, constants, (Fraction(1), eps), RateFunction.poisson())
    # eps = 0 stays allowed: I(1) = 0 is the right value there
    rows = tail_report(bc, constants, (Fraction(0),), RateFunction.poisson(), xs=(12,)).rows
    assert len(rows) == 1 and rows[0].rate_value == 0


def test_tail_report_transforms_each_window_once(ff2_census, monkeypatch):
    bc = joint_census(unit_weights(ff2_census), 30, census=ff2_census)
    constants = constants_for(ff2_census.source)
    xs = (10, 20, 30)
    calls = []
    real = DiscreteMeasure.laplace

    def counting(self, theta, precision=128):
        calls.append(theta)
        return real(self, theta, precision)

    converted = []
    to_mpf = distribution.to_mpf

    def counting_to_mpf(x):
        converted.append(x)
        return to_mpf(x)

    # every value and mass of every window's PMF, each once
    atoms = sorted(x for X in xs for atom in w_pmf(bc, X).atoms for x in atom)
    monkeypatch.setattr(DiscreteMeasure, "laplace", counting)
    monkeypatch.setattr(distribution, "to_mpf", counting_to_mpf)
    for epsilons in ((Fraction(1),), (Fraction(1, 2), Fraction(1), Fraction(2))):
        calls.clear()
        converted.clear()
        rep = tail_report(bc, constants, epsilons, RateFunction.poisson(), xs=xs)
        assert len(calls) == len(xs) * len(_DEFAULT_THETA_GRID) == 120
        # one real view per window serves all 40 transforms and every eps
        assert sorted(converted) == atoms
    monkeypatch.undo()
    assert len(rep.rows) == 9
    for row in rep.rows:
        pmf = w_pmf(bc, row.X)
        expected = chebyshev_bound(lambda t: pmf.laplace(t), row.threshold, _DEFAULT_THETA_GRID)
        assert row.chebyshev == expected


def test_tail_report_evaluates_each_rate_once(ff2_census, monkeypatch):
    bc = joint_census(unit_weights(ff2_census), 30, census=ff2_census)
    constants = constants_for(ff2_census.source)
    rate = RateFunction.legendre(measure({0: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(1, 2)}))
    epsilons = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    xs = (10, 20, 30)
    calls = []
    real = ldp.legendre_rate

    def counting(rho, x, tol, precision):
        calls.append(x)
        return real(rho, x, tol, precision)

    monkeypatch.setattr(ldp, "legendre_rate", counting)
    rep = tail_report(bc, constants, epsilons, rate, xs=xs)
    monkeypatch.undo()
    # one Legendre solve per eps, not one per (window, eps)
    assert len(calls) == len(epsilons) == 3
    assert len(rep.rows) == 9
    with mp.workprec(128 + 16):
        expected = [rate.evaluate(1 + to_mpf(eps)) for eps in epsilons]
    assert [row.rate_value for row in rep.rows] == expected * len(xs)
