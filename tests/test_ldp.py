"""Rate functions: closed forms vs the numeric Legendre transform, plus
Chebyshev bounds that must dominate every exact census tail."""

from fractions import Fraction
from functools import partial

import mpmath as mp
import pytest

from orbitstat import distribution, ldp
from orbitstat import (
    AsymptoticConstants,
    DiscreteMeasure,
    RateFunction,
    build_census,
    builtin_source,
    chebyshev_bound,
    constants_for,
    joint_census,
    legendre_rate,
    poisson_rate,
    subset_rate,
    subset_weights,
    tail_report,
    unit_weights,
    w_pmf,
)
from orbitstat.ldp import _DEFAULT_THETA_GRID
from orbitstat.polyops import to_mpf

import oracles


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


def test_poisson_rate_at_infinity_and_nan():
    assert poisson_rate(mp.inf) == mp.inf
    assert poisson_rate(float("inf")) == mp.inf
    for nan in (mp.nan, float("nan")):
        with pytest.raises(ValueError, match="nan"):
            poisson_rate(nan)


def test_subset_rate_at_infinity_and_nan():
    for r in (Fraction(1, 4), 0):
        assert subset_rate(mp.inf, 3, r) == mp.inf
        with pytest.raises(ValueError, match="nan"):
            subset_rate(mp.nan, 3, r)


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
    with pytest.raises(ValueError, match="total mass"):
        legendre_rate(measure({1: Fraction(1, 2)}), 1)


def test_legendre_at_infinity_and_nan():
    # the supremum of theta x - L(theta) is +inf at x = +-inf whatever the
    # atoms' signs; nan is refused, never bracketed
    for rho in (measure({1: 1}), measure({-1: Fraction(1, 2), 2: Fraction(1, 2)}), measure({0: 1})):
        assert legendre_rate(rho, mp.inf) == mp.inf
        assert legendre_rate(rho, -mp.inf) == mp.inf
        with pytest.raises(ValueError, match="nan"):
            legendre_rate(rho, mp.nan)


def test_rate_function_dispatch():
    rho = measure({1: 1})
    with mp.workprec(100):
        assert RateFunction.poisson().evaluate(2) == poisson_rate(2)
        subset = RateFunction(lambda x, precision: subset_rate(x, 2, Fraction(1, 3), precision))
        assert subset.evaluate(1) == subset_rate(1, 2, Fraction(1, 3))
        got = RateFunction(partial(legendre_rate, rho)).evaluate(2)
        assert abs(got - poisson_rate(2)) < 1e-8


# -- Chebyshev bounds -------------------------------------------------------------


def test_chebyshev_single_theta_worked_example(ff2_census):
    bc = joint_census(unit_weights(ff2_census), 2, census=ff2_census)
    pmf = w_pmf(bc, 2)
    with mp.workprec(100):
        bound = chebyshev_bound(partial(oracles.naive_laplace, pmf.atoms, precision=128), 2, (mp.log(2),))
        # E[2^W] = 15/7, so the bound is log(15/7) - 2 log 2 = log(15/28)
        assert abs(bound - mp.log(mp.mpf(15) / 28)) < mp.mpf(2) ** -70
        # and it dominates the exact tail P[W >= 2] = 1/7
        assert bound >= mp.log(mp.mpf(1) / 7)


def test_chebyshev_grid_refinement_monotone(ff2_census):
    bc = joint_census(unit_weights(ff2_census), 10, census=ff2_census)
    pmf = w_pmf(bc, 10)
    coarse = list(_DEFAULT_THETA_GRID[::4])
    fine = list(_DEFAULT_THETA_GRID)
    mgf = partial(oracles.naive_laplace, pmf.atoms, precision=128)
    b_coarse = chebyshev_bound(mgf, 4, coarse)
    b_fine = chebyshev_bound(mgf, 4, fine)
    assert b_fine <= b_coarse
    assert chebyshev_bound(mgf, 0, fine) >= 0


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
    for xs in ((40,), (0,), (5, -1)):
        with pytest.raises(ValueError, match="outside census"):
            tail_report(bc, good, (Fraction(1),), RateFunction.poisson(), xs=xs)


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


def full_grid_bound(bc, X, threshold, precision=128):
    """chebyshev_bound over the whole default grid on the fdot transform."""
    mgf = partial(oracles.naive_laplace, w_pmf(bc, X).atoms, precision=precision)
    return chebyshev_bound(mgf, threshold, _DEFAULT_THETA_GRID, precision)


def counting_transforms(monkeypatch, bc, xs, precision=128):
    """Patch _laplace to record each transform as its (window, grid index):
    a call takes one window's real atoms and one grid theta."""
    with mp.workprec(precision + 16):
        thetas = [to_mpf(theta) for theta in _DEFAULT_THETA_GRID]
        keys = {}
        for X in xs:
            real = w_pmf(bc, X).real_atoms(precision)
            for i, theta in enumerate(thetas):
                keys.setdefault((real, theta), (X, i))
    assert len(keys) == len(xs) * len(thetas)
    transformed = []
    laplace = ldp._laplace

    def counting_laplace(atoms, theta):
        transformed.append(keys[(tuple(atoms), theta)])
        return laplace(atoms, theta)

    monkeypatch.setattr(ldp, "_laplace", counting_laplace)
    return transformed


def test_tail_report_transforms_each_window_once(ff2_census, monkeypatch):
    bc = joint_census(unit_weights(ff2_census), 30, census=ff2_census)
    constants = constants_for(ff2_census.source)
    xs = (10, 20, 30)
    # E[e^(theta W)] of every (window, theta), each to be logged at most once
    transforms = {oracles.naive_laplace(w_pmf(bc, X).atoms, t, 128): (X, i)
                  for X in xs for i, t in enumerate(_DEFAULT_THETA_GRID)}
    assert len(transforms) == len(xs) * len(_DEFAULT_THETA_GRID) == 120
    logged = []
    log = mp.log

    def counting_log(x):
        logged.append(x)
        return log(x)

    converted = []
    to_mpf = distribution.to_mpf

    def counting_to_mpf(x):
        converted.append(x)
        return to_mpf(x)

    # every value and mass of every window's PMF, each once
    atoms = sorted(x for X in xs for atom in w_pmf(bc, X).atoms for x in atom)
    transformed = counting_transforms(monkeypatch, bc, xs)
    monkeypatch.setattr(mp, "log", counting_log)
    monkeypatch.setattr(distribution, "to_mpf", counting_to_mpf)
    for epsilons in ((Fraction(1),), (Fraction(1, 2), Fraction(1), Fraction(2))):
        transformed.clear()
        logged.clear()
        converted.clear()
        rep = tail_report(bc, constants, epsilons, RateFunction.poisson(), xs=xs)
        # each (window, theta) takes e^(theta y) at most once, whatever the number of eps
        assert len(set(transformed)) == len(transformed)
        # and one log of its transform, nothing for a theta the screen dropped
        assert sorted(transforms[x] for x in logged if x in transforms) == sorted(transformed)
        # the screen drops most of the grid
        assert len(transformed) <= 2 * len(rep.rows)
        # one real view per window serves every transform and every eps
        assert sorted(converted) == atoms
    monkeypatch.undo()
    assert len(rep.rows) == 9
    with mp.workprec(128 + 16):
        grid = [to_mpf(t) for t in _DEFAULT_THETA_GRID]
        for X, i in transformed:
            # e^(theta y) only where the minimum can fall: within the screen's
            # slack of some row's bound
            log_m = mp.log(oracles.naive_laplace(w_pmf(bc, X).atoms, grid[i], 128))
            assert min(log_m - grid[i] * row.threshold - row.chebyshev
                       for row in rep.rows if row.X == X) < 1e-9
    for row in rep.rows:
        assert row.chebyshev == full_grid_bound(bc, row.X, row.threshold)


@pytest.mark.parametrize(
    "name,params",
    [("FF", {"q": 2}), ("E", {"p": 3, "n": 2}), ("GA", {}), ("GM", {})],
    ids=["FF2", "E32", "GA", "GM"],
)
def test_tail_report_chebyshev_is_bit_identical_to_laplace(name, params):
    source = builtin_source(name, **params)
    cen = build_census(source, 40)
    constants = constants_for(source, cen=cen)
    epsilons = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
    rows = 0
    for g in (unit_weights(cen), subset_weights(cen, lambda ell: ell % 2 == 0, Fraction(2, 3))):
        bc = joint_census(g, 40, census=cen)
        for precision in (53, 128, 200):
            rep = tail_report(bc, constants, epsilons, RateFunction.poisson(), precision=precision)
            for row in rep.rows:
                pmf = w_pmf(bc, row.X)
                mgf = partial(oracles.naive_laplace, pmf.atoms, precision=precision)
                expected = chebyshev_bound(mgf, row.threshold, _DEFAULT_THETA_GRID, precision)
                assert row.chebyshev == expected, (g, precision, row.X, row.epsilon)
                rows += 1
    assert rows == 2 * 3 * 3 * len(epsilons)


def bits(value):
    """An mpf as its exact (sign, mantissa, exponent, bitcount) tuple."""
    return getattr(value, "_mpf_", value)


@pytest.mark.parametrize(
    "name,params",
    [("FF", {"q": 2}), ("E", {"p": 3, "n": 2}), ("GA", {}), ("GM", {})],
    ids=["FF2", "E32", "GA", "GM"],
)
def test_tail_report_matches_naive_oracle(name, params):
    # every row, bit for bit, against mp.exp(theta * y) and one fdot per transform
    source = builtin_source(name, **params)
    cen = build_census(source, 40)
    constants = constants_for(source, cen=cen)
    epsilons = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
    for g in (unit_weights(cen), subset_weights(cen, lambda ell: ell % 2 == 0, Fraction(2, 3))):
        bc = joint_census(g, 40, census=cen)
        windows = [(X, w_pmf(bc, X).atoms) for X in (13, 26, 40)]
        for precision in (64, 128, 200):
            rep = tail_report(bc, constants, epsilons, RateFunction.poisson(), precision=precision)
            got = [
                (row.X, row.epsilon, row.threshold, row.log_p, row.normalized, row.rate_value, row.chebyshev)
                for row in rep.rows
            ]
            expected = oracles.naive_tail_rows(windows, constants.B, epsilons, _DEFAULT_THETA_GRID, precision)
            assert [tuple(map(bits, row)) for row in got] == [tuple(map(bits, row)) for row in expected]


def test_tail_report_evaluates_each_rate_once(ff2_census, monkeypatch):
    bc = joint_census(unit_weights(ff2_census), 30, census=ff2_census)
    constants = constants_for(ff2_census.source)
    rho = measure({0: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(1, 2)})
    rate = RateFunction(lambda x, precision: ldp.legendre_rate(rho, x, precision))
    epsilons = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    xs = (10, 20, 30)
    calls = []
    real = ldp.legendre_rate

    def counting(rho, x, precision):
        calls.append(x)
        return real(rho, x, precision)

    monkeypatch.setattr(ldp, "legendre_rate", counting)
    rep = tail_report(bc, constants, epsilons, rate, xs=xs)
    monkeypatch.undo()
    # one Legendre solve per eps, not one per (window, eps)
    assert len(calls) == len(epsilons) == 3
    assert len(rep.rows) == 9
    with mp.workprec(128 + 16):
        expected = [rate.evaluate(1 + to_mpf(eps)) for eps in epsilons]
    assert [row.rate_value for row in rep.rows] == expected * len(xs)


@pytest.mark.parametrize(
    "name,params",
    [("FF", {"q": 2}), ("E", {"p": 3, "n": 2}), ("GA", {}), ("GM", {})],
    ids=["FF2", "E32", "GA", "GM"],
)
def test_tail_report_matches_naive_oracle_at_low_precision(name, params):
    # the float screen's slack widens as the mpf transform coarsens; a
    # negative weight puts every value at or below 0
    source = builtin_source(name, **params)
    cen = build_census(source, 40)
    constants = constants_for(source, cen=cen)
    epsilons = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
    weights = (
        unit_weights(cen),
        subset_weights(cen, lambda ell: ell % 2 == 0, Fraction(2, 3)),
        subset_weights(cen, lambda ell: ell % 3 != 0, Fraction(-5, 2)),
    )
    for g in weights:
        bc = joint_census(g, 40, census=cen)
        windows = [(X, w_pmf(bc, X).atoms) for X in (13, 26, 40)]
        for precision in (8, 24, 128):
            rep = tail_report(bc, constants, epsilons, RateFunction.poisson(), precision=precision)
            got = [
                (row.X, row.epsilon, row.threshold, row.log_p, row.normalized, row.rate_value, row.chebyshev)
                for row in rep.rows
            ]
            expected = oracles.naive_tail_rows(windows, constants.B, epsilons, _DEFAULT_THETA_GRID, precision)
            assert [tuple(map(bits, row)) for row in got] == [tuple(map(bits, row)) for row in expected]


def as_fraction(x):
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def exact_tie(bc, constants, X, eps):
    """For the grid theta k where the bound at eps falls: k, the eps at
    which k and k + 1 give equal exact bounds, and the exact log transforms."""
    with mp.workprec(416):
        grid = [to_mpf(t) for t in _DEFAULT_THETA_GRID]
        log_mgfs = [mp.log(oracles.naive_laplace(w_pmf(bc, X).atoms, t, 400)) for t in grid]
        scale = to_mpf(constants.B) * mp.log(X)
        k = min(range(len(grid)), key=lambda i: log_mgfs[i] - grid[i] * (1 + eps) * scale)
        tie_at = (log_mgfs[k + 1] - log_mgfs[k]) / (grid[k + 1] - grid[k])
        return k, as_fraction(tie_at / scale - 1), log_mgfs


def pair_gap(log_mgfs, k, threshold):
    """Bound at grid theta k minus the bound at k + 1, at the working precision."""
    grid = [to_mpf(t) for t in _DEFAULT_THETA_GRID]
    return (log_mgfs[k] - grid[k] * threshold) - (log_mgfs[k + 1] - grid[k + 1] * threshold)


def test_tail_report_keeps_both_thetas_of_a_near_tie(ff2_census, monkeypatch):
    bc = joint_census(unit_weights(ff2_census), 30, census=ff2_census)
    constants = constants_for(ff2_census.source)
    cases = 0
    for X in (10, 20, 30):
        k, tie_eps, log_mgfs = exact_tie(bc, constants, X, Fraction(1, 2))
        # either side of the tie, so that one side of it disagrees with the
        # float screen's own ordering of the pair
        for offset in (Fraction(1, 10**30), Fraction(-1, 10**30)):
            transformed = counting_transforms(monkeypatch, bc, (X,))
            (row,) = tail_report(bc, constants, (tie_eps + offset,), RateFunction.poisson(), xs=(X,)).rows
            monkeypatch.undo()
            with mp.workprec(128 + 16):
                gap = pair_gap(log_mgfs, k, row.threshold)
            # the two bounds differ by about 1e-30, far below the float screen's resolution
            assert 0 < abs(gap) < 1e-29 and (gap > 0) == (offset > 0)
            assert (X, k) in transformed and (X, k + 1) in transformed
            assert row.chebyshev == full_grid_bound(bc, X, row.threshold)
            cases += 1
    assert cases == 6


def test_tail_report_keeps_the_low_precision_winner_of_a_near_tie(ff2_census, monkeypatch):
    # at 8 bits the mpf transform is off by about 1e-7, so near a tie it can
    # order the pair against the exact values the float screen approximates
    bc = joint_census(unit_weights(ff2_census), 30, census=ff2_census)
    constants = constants_for(ff2_census.source)
    precision = 8
    reversed_pairs = 0
    for X in (10, 20, 30):
        k, tie_eps, exact = exact_tie(bc, constants, X, Fraction(1))
        with mp.workprec(precision + 16):
            coarse = [mp.log(oracles.naive_laplace(w_pmf(bc, X).atoms, t, precision)) for t in _DEFAULT_THETA_GRID]
        for step in range(-40, 41, 4):
            eps = tie_eps + Fraction(step, 2**27)
            transformed = counting_transforms(monkeypatch, bc, (X,), precision)
            (row,) = tail_report(bc, constants, (eps,), RateFunction.poisson(), xs=(X,), precision=precision).rows
            monkeypatch.undo()
            with mp.workprec(precision + 16):
                coarse_gap = pair_gap(coarse, k, row.threshold)
            with mp.workprec(416):
                exact_gap = pair_gap(exact, k, row.threshold)
            if (coarse_gap > 0) != (exact_gap > 0):
                reversed_pairs += 1
                assert (X, k) in transformed and (X, k + 1) in transformed
            assert row.chebyshev == full_grid_bound(bc, X, row.threshold, precision)
    assert reversed_pairs > 0
