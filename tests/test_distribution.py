"""Bivariate censuses and exact W distributions against the DFS enumerator."""

import copy
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitstat import (
    DiscreteMeasure,
    WeightedAdditive,
    build_census,
    builtin_source,
    expected_w,
    joint_census,
    length_decay_weights,
    mgf,
    rho_measure,
    subset_weights,
    table_source,
    unit_weights,
    w_pmf,
)

import oracles


# -- DiscreteMeasure ------------------------------------------------------------


def test_measure_basics():
    m = DiscreteMeasure.from_dict({Fraction(2): Fraction(1, 4), Fraction(0): Fraction(3, 4), Fraction(5): 0})
    assert m.support == (0, 2)
    assert m.total_mass() == 1 and m.is_probability()
    assert m.mass_at(Fraction(2)) == Fraction(1, 4)
    assert m.mass_at(Fraction(7)) == 0
    assert m.mean() == Fraction(1, 2)
    assert m.variance() == Fraction(2) ** 2 * Fraction(1, 4) - Fraction(1, 4)
    assert m.tail_mass(1) == Fraction(1, 4)
    assert m.tail_mass(0) == 1
    with mp.workprec(80):
        assert abs(m.laplace(0) - 1) < mp.mpf(2) ** -60


def test_measure_validation():
    with pytest.raises(ValueError, match="negative"):
        DiscreteMeasure(((Fraction(0), Fraction(-1)),))
    with pytest.raises(ValueError, match="sorted"):
        DiscreteMeasure(((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1))))
    with pytest.raises(ValueError, match="sorted"):
        DiscreteMeasure(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))
    near = DiscreteMeasure(((Fraction(0), Fraction(999999, 1000000)),))
    assert not near.is_probability()
    assert near.is_probability(tol=1e-3)


# -- weight classes ---------------------------------------------------------------


def test_weight_constructors(ff2_census):
    P = ff2_census.primes
    u = unit_weights(ff2_census)
    assert u.X == ff2_census.X_max
    assert u.classes[3] == ((P[3], Fraction(1)),)

    even = subset_weights(ff2_census, lambda ell: ell % 2 == 0)
    assert even.classes[2][0][1] == 1 and even.classes[3][0][1] == 0

    decay = length_decay_weights(ff2_census, Fraction(2))
    assert decay.classes[4][0][1] == Fraction(1, 16)

    scaled = subset_weights(P, lambda ell: True, scale=Fraction(2, 3))
    assert scaled.classes[1][0][1] == Fraction(2, 3)


def test_weight_validation():
    with pytest.raises(ValueError, match="align"):
        WeightedAdditive((0, 2), ((),))
    with pytest.raises(ValueError, match="sum to"):
        WeightedAdditive((0, 2), ((), ((1, Fraction(1)),)))
    with pytest.raises(ValueError, match="negative"):
        WeightedAdditive((0, 0), ((), ((-1, Fraction(1)), (1, Fraction(0)))))
    with pytest.raises(ValueError, match="rational"):
        WeightedAdditive((0, 1), ((), ((1, 0.5),)))


def test_length_decay_irrational_is_deterministic(ff2_census):
    lam = mp.mpf(2) ** mp.mpf("0.5")
    a = length_decay_weights(ff2_census, lam)
    b = length_decay_weights(ff2_census, lam)
    assert a.classes == b.classes
    assert isinstance(a.classes[2][0][1], Fraction)


# -- the bivariate census ---------------------------------------------------------


def test_joint_census_ff2_x2_worked_example(ff2_census):
    bc = joint_census(unit_weights(ff2_census), 2, census=ff2_census)
    assert bc.values == (0, 1, 2)
    assert bc.cells == {(0, 0): 1, (1, 1): 2, (2, 1): 3, (2, 2): 1}
    assert bc.marginal(2) == 4
    assert bc.count_orbits() == 7


def test_joint_census_routes_agree(ff2_census):
    with_census = joint_census(unit_weights(ff2_census), 8, census=ff2_census)
    standalone = joint_census(unit_weights(ff2_census), 8)
    assert with_census.cells == standalone.cells
    assert with_census.values == standalone.values


def test_joint_census_marginals(e32_census):
    bc = joint_census(unit_weights(e32_census), 12, census=e32_census)
    for n in range(13):
        assert bc.marginal(n) == e32_census.totals[n]


def test_joint_census_guards(ff2_census, e32_census):
    with pytest.raises(ValueError, match="cover"):
        joint_census(unit_weights(ff2_census.primes[:5]), 10)
    with pytest.raises(ValueError, match="inconsistent"):
        joint_census(unit_weights(e32_census), 5, census=ff2_census)
    # the marginal check guards the code, not the input: a failure is an
    # AssertionError, which the CLI reports as an internal error (exit 1)
    altered = copy.copy(ff2_census)
    altered.totals = [*ff2_census.totals[:3], ff2_census.totals[3] + 1, *ff2_census.totals[4:]]
    with pytest.raises(AssertionError, match="marginal mismatch at n=3"):
        joint_census(unit_weights(ff2_census), 5, census=altered)


@st.composite
def weighted_statistics(draw):
    """X <= 7 and a WeightedAdditive with 1-3 classes per length (counts in
    [0, 2], weights p/q with p in [-3, 3] and q in [1, 6]), plus each
    length's per-prime weights for the labeled oracle."""
    X = draw(st.integers(1, 7))
    weight = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6))
    P, classes, labeled = [0], [()], {}
    for ell in range(1, X + 1):
        parts = draw(st.lists(st.tuples(st.integers(0, 2), weight), min_size=1, max_size=3))
        P.append(sum(count for count, _ in parts))
        classes.append(tuple(parts))
        labeled[ell] = [w for count, w in parts for _ in range(count)]
    return X, WeightedAdditive(tuple(P), tuple(classes)), labeled


@settings(max_examples=60, deadline=None)
@given(weighted_statistics())
def test_joint_census_matches_labeled_oracle(case):
    X, g, labeled = case
    sigma = [sum(ell * g.primes[ell] for ell in range(1, k + 1) if k % ell == 0)
             for k in range(1, X + 1)]
    cen = build_census(table_source(sigma), X)
    via_census = joint_census(g, X, census=cen)
    standalone = joint_census(g, X)
    assert via_census.cells == standalone.cells
    assert via_census.values == standalone.values
    results = oracles.brute_weighted_census(labeled, X)
    for n in range(X + 1):
        assert via_census.marginal(n) == cen.totals[n]
        assert cen.totals[n] == sum(c for (m, _), c in results.items() if m == n)
    masses = {}
    for (_, v), c in results.items():
        masses[v] = masses.get(v, 0) + c
    total = sum(masses.values())
    assert dict(w_pmf(via_census).atoms) == {v: Fraction(c, total) for v, c in masses.items()}


def test_joint_census_scales_to_x120(e32_source):
    cen = build_census(e32_source, 120)
    bc = joint_census(unit_weights(cen), 120, census=cen)
    for n in range(121):
        assert bc.marginal(n) == cen.totals[n]
    lemma, via_pmf = expected_w(cen, 120, bc)
    assert lemma == via_pmf


def brute_value_pmf(results, X, value_of_profile):
    """PMF of an arbitrary profile statistic from the DFS enumeration."""
    total = oracles.brute_orbit_total(results, X)
    masses = {}
    for (n, _, profile), c in results.items():
        if n <= X:
            v = value_of_profile(profile)
            masses[v] = masses.get(v, 0) + c
    return {v: Fraction(c, total) for v, c in masses.items()}


@pytest.mark.parametrize("name,params", [("FF", {"q": 2}), ("E", {"p": 3, "n": 2})])
def test_w_pmf_matches_dfs_enumeration(name, params):
    src = builtin_source(name, **params)
    cen = build_census(src, 6)
    P = {ell: cen.primes[ell] for ell in range(1, 7)}
    results = oracles.brute_enumerate(P, 6)
    bc = joint_census(unit_weights(cen), 6, census=cen)
    for X in range(7):
        expected = oracles.brute_w_pmf(results, X)
        got = w_pmf(bc, X)
        assert {int(v): m for v, m in got.atoms} == expected


def test_subset_statistic_matches_dfs(ff2_census):
    cen = ff2_census
    P = {ell: cen.primes[ell] for ell in range(1, 7)}
    results = oracles.brute_enumerate(P, 6)
    g = subset_weights(cen, lambda ell: ell % 2 == 0)
    bc = joint_census(g, 6, census=cen)
    expected = brute_value_pmf(
        results, 6, lambda profile: sum(d for l, _, d in profile if l % 2 == 0)
    )
    assert {int(v): m for v, m in w_pmf(bc, 6).atoms} == expected


def test_length_decay_statistic_matches_dfs(e32_census):
    cen = e32_census
    P = {ell: cen.primes[ell] for ell in range(1, 6)}
    results = oracles.brute_enumerate(P, 5)
    g = length_decay_weights(cen, Fraction(4))
    bc = joint_census(g, 5, census=cen)
    expected = brute_value_pmf(
        results, 5, lambda profile: sum(Fraction(d, 4**l) for l, _, d in profile)
    )
    assert dict(w_pmf(bc, 5).atoms) == expected


def test_w_pmf_edges(ff2_census):
    bc = joint_census(unit_weights(ff2_census), 6, census=ff2_census)
    at_zero = w_pmf(bc, 0)
    assert at_zero.atoms == ((Fraction(0), Fraction(1)),)
    with pytest.raises(ValueError, match="outside"):
        w_pmf(bc, 7)
    with pytest.raises(ValueError, match="outside"):
        w_pmf(bc, -1)


# -- expectation and mgf -----------------------------------------------------------


def test_expected_w_two_routes(ff2_census, e32_census, per13_census):
    for cen in (ff2_census, e32_census, per13_census):
        for X in range(0, min(cen.X_max, 12) + 1):
            lemma, via_pmf = expected_w(cen, X)
            assert lemma == via_pmf
    assert expected_w(ff2_census, 2)[0] == 1


def test_expected_w_matches_dfs(e32_census):
    P = {ell: e32_census.primes[ell] for ell in range(1, 7)}
    results = oracles.brute_enumerate(P, 6)
    for X in range(7):
        assert expected_w(e32_census, X)[0] == oracles.brute_expected_w(results, X)


def test_mgf(ff2_census):
    bc = joint_census(unit_weights(ff2_census), 6, census=ff2_census)
    with mp.workprec(100):
        assert abs(mgf(bc, 6, 0) - 1) < mp.mpf(2) ** -80
        # E[2^W] at X = 2: (1 + 2*5 + 4)/7
        v = mgf(bc, 2, mp.log(2))
        assert abs(v - mp.mpf(15) / 7) < mp.mpf(2) ** -80
        assert mgf(bc, 6, 1) > mgf(bc, 6, 0.5) > 1


# -- prime-orbit measures ------------------------------------------------------------


def test_rho_unit_weights_is_point_mass(ff2_census):
    rho = rho_measure(unit_weights(ff2_census), ff2_census, 10)
    assert rho.atoms == ((Fraction(1), Fraction(1)),)


def test_rho_subset_masses_exact(ff2_census):
    X = 12
    g = subset_weights(ff2_census, lambda ell: ell % 2 == 0)
    rho = rho_measure(g, ff2_census, X)
    even = sum(Fraction(ff2_census.primes[l], 2**l) for l in range(2, X + 1, 2))
    total = sum(Fraction(ff2_census.primes[l], 2**l) for l in range(1, X + 1))
    assert rho.mass_at(Fraction(1)) == even / total
    assert rho.mass_at(Fraction(0)) == 1 - even / total
    assert rho.total_mass() == 1


def test_rho_length_decay_escapes_to_zero(ff2_census):
    # Weights lam^(-ell) push the prime mass toward 0 as X grows, so the
    # Laplace transform at any fixed theta sags toward 1.
    g = length_decay_weights(ff2_census, Fraction(2))
    vals = []
    for X in (15, 30, 60):
        rho = rho_measure(g, ff2_census, X)
        assert rho.total_mass() == 1
        vals.append(rho.laplace(1))
    assert vals[0] > vals[1] > vals[2] > 1


def test_rho_irrational_lambda():
    cen = build_census(builtin_source("GM"), 14)
    rho = rho_measure(unit_weights(cen), cen, 14)
    assert rho.support == (1,)
    with mp.workprec(100):
        assert abs(rho.total_mass() - 1) < mp.mpf(2) ** -80


def test_rho_no_primes_error():
    cen = build_census(builtin_source("periodic", values=(0, 0, 3)), 9)
    with pytest.raises(ValueError, match="no prime orbits"):
        rho_measure(unit_weights(cen), cen, 2)
    rho = rho_measure(unit_weights(cen), cen, 3)
    assert rho.atoms == ((Fraction(1), Fraction(1)),)


def test_rho_range_guards(ff2_census):
    with pytest.raises(ValueError, match="outside"):
        rho_measure(unit_weights(ff2_census), ff2_census, 0)
    with pytest.raises(ValueError, match="outside"):
        rho_measure(unit_weights(ff2_census), ff2_census, 61)
    with pytest.raises(ValueError, match="cover"):
        rho_measure(unit_weights(ff2_census.primes[:5]), ff2_census, 10)
