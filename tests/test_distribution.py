"""Bivariate censuses and exact W distributions against the DFS enumerator."""

import copy
from fractions import Fraction
from math import floor, log2

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitstat import distribution, kernels
from orbitstat import (
    DiscreteMeasure,
    WeightedAdditive,
    build_census,
    builtin_source,
    expected_w,
    fad_source,
    joint_census,
    rho_measure,
    subset_weights,
    table_source,
    unit_weights,
    w_pmf,
)

import oracles
from test_systems import diagonal_specs, padic_product_forms


# -- DiscreteMeasure ------------------------------------------------------------


def test_measure_basics():
    m = DiscreteMeasure.from_dict({Fraction(2): Fraction(1, 4), Fraction(0): Fraction(3, 4), Fraction(5): 0})
    assert m.support == (0, 2)
    assert m.total_mass() == 1 and m.is_probability()
    assert m.mass_at(Fraction(2)) == Fraction(1, 4)
    assert m.mass_at(Fraction(7)) == 0
    assert m.mean() == Fraction(1, 2)
    assert m.variance() == Fraction(2) ** 2 * Fraction(1, 4) - Fraction(1, 4)
    assert m.real_atoms(64) == ((0, 0.75), (2, 0.25))


def test_measure_validation():
    with pytest.raises(ValueError, match="negative"):
        DiscreteMeasure(((Fraction(0), Fraction(-1)),))
    with pytest.raises(ValueError, match="sorted"):
        DiscreteMeasure(((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1))))
    with pytest.raises(ValueError, match="sorted"):
        DiscreteMeasure(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))
    near = DiscreteMeasure(((Fraction(0), Fraction(999999, 1000000)),))
    assert not near.is_probability()


# -- weight classes ---------------------------------------------------------------


def test_weight_constructors(ff2_census):
    P = ff2_census.primes
    u = unit_weights(ff2_census)
    assert u.X == ff2_census.X_max
    assert u.classes[3] == ((P[3], Fraction(1)),)

    even = subset_weights(ff2_census, lambda ell: ell % 2 == 0)
    assert even.classes[2][0][1] == 1 and even.classes[3][0][1] == 0

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


# -- the bivariate census ---------------------------------------------------------


def test_joint_census_ff2_x2_worked_example(ff2_census):
    bc = joint_census(unit_weights(ff2_census), 2, census=ff2_census)
    assert bc.rows == ({0: 1}, {1: 2}, {1: 3, 2: 1})
    assert bc.D == 1
    assert sum(bc.rows[2].values()) == 4
    assert sum(sum(row.values()) for row in bc.rows) == 7


def test_joint_census_routes_agree(ff2_census):
    with_census = joint_census(unit_weights(ff2_census), 8, census=ff2_census)
    # a census of the bare sigma table gives the same rows
    table = build_census(table_source(ff2_census.sigma[1:9]), 8)
    from_table = joint_census(unit_weights(table), 8, census=table)
    assert with_census.rows == from_table.rows
    assert with_census.D == from_table.D
    # and the row sums are the Euler product over the prime counts
    euler = kernels.euler_product_series(ff2_census.primes[:9], 8)
    assert [sum(row.values()) for row in with_census.rows] == euler


def test_joint_census_marginals(e32_census):
    bc = joint_census(unit_weights(e32_census), 12, census=e32_census)
    for n in range(13):
        assert sum(bc.rows[n].values()) == e32_census.totals[n]


def test_joint_census_guards(ff2_census, e32_census):
    with pytest.raises(ValueError, match="cover"):
        joint_census(unit_weights(ff2_census.primes[:5]), 10, census=ff2_census)
    with pytest.raises(ValueError, match="inconsistent"):
        joint_census(unit_weights(e32_census), 5, census=ff2_census)
    # weight classes that reach past a shorter census
    with pytest.raises(ValueError, match="X beyond census"):
        joint_census(unit_weights(build_census(ff2_census.source, 10)), 8,
                     census=build_census(ff2_census.source, 5))
    # the marginal check guards the code, not the input: a failure is an
    # AssertionError, which the CLI reports as an internal error (exit 1)
    altered = copy.copy(ff2_census)
    altered.totals = [*ff2_census.totals[:3], ff2_census.totals[3] + 1, *ff2_census.totals[4:]]
    altered.joint_censuses = {}  # a shallow copy would share the original's
    with pytest.raises(AssertionError, match="marginal mismatch at n=3"):
        joint_census(unit_weights(ff2_census), 5, census=altered)
    # the packed slots are sized from sigma, not from the totals under check:
    # slots sized from these totals (10 bits) would carry row 7's largest
    # count, 2305, and report another sum than the true N_7
    altered = copy.copy(e32_census)
    altered.totals = [*e32_census.totals[:7], 1, 1, *e32_census.totals[9:]]
    altered.joint_censuses = {}
    true_n7 = kernels.euler_product_series(e32_census.primes, 8)[7]
    assert true_n7 == 3265
    with pytest.raises(AssertionError, match=f"marginal mismatch at n=7: {true_n7} != 1"):
        joint_census(unit_weights(e32_census), 8, census=altered)


@st.composite
def weighted_statistics(draw):
    """X <= 7 and a WeightedAdditive with 1-3 classes per length (counts in
    [0, 2], weights p/q with p in [-3, 3] and q in [1, 6]), plus each
    length's per-prime weights for the labeled oracle. Some draws are count
    statistics, one weight for every class (zero and negative included),
    which joint_census expands as packed rows; the others keep its dicts."""
    X = draw(st.integers(1, 7))
    weight = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6))
    if draw(st.booleans()):
        weight = st.just(draw(weight))
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
    results = oracles.brute_weighted_census(labeled, X)
    cells = {(n, Fraction(key, via_census.D)): c for n, row in enumerate(via_census.rows) for key, c in row.items()}
    assert cells == results
    for n in range(X + 1):
        assert sum(via_census.rows[n].values()) == cen.totals[n]
        assert cen.totals[n] == sum(c for (m, _), c in results.items() if m == n)
    masses = {}
    for (_, v), c in results.items():
        masses[v] = masses.get(v, 0) + c
    total = sum(masses.values())
    assert dict(w_pmf(via_census).atoms) == {v: Fraction(c, total) for v, c in masses.items()}


def three_statistics(cen):
    """Unit weights and subset weights (5/2 on lengths divisible by 3), both
    packed rows, and the two-weight statistic (1 on odd lengths, 2 on even
    ones), which keeps the dict rows."""
    P = tuple(cen.primes)
    two = WeightedAdditive(P, ((),) + tuple(((P[ell], Fraction(2 - ell % 2)),) for ell in range(1, len(P))))
    return unit_weights(cen), subset_weights(cen, lambda ell: ell % 3 == 0, Fraction(5, 2)), two


@pytest.mark.parametrize("name,params", [("FF", {"q": 2}), ("E", {"p": 3, "n": 2}), ("GA", {}), ("GM", {})])
def test_joint_census_matches_the_ascending_oracle_on_builtins(name, params):
    cen = build_census(builtin_source(name, **params), 60, crosscheck_to=0)
    for X in (1, 2, 7, 8, 40, 60):
        for g in three_statistics(cen):
            bc = joint_census(g, X, census=cen)
            assert (bc.D, list(bc.rows)) == oracles.ascending_joint_rows(g.classes, X)


@settings(max_examples=40, deadline=None)
@given(st.one_of(diagonal_specs().map(lambda case: case[0]), padic_product_forms()), st.integers(1, 40))
def test_joint_census_matches_the_ascending_oracle_on_generated_forms(spec, X):
    # the realizable product forms test_systems generates for its censuses
    cen = build_census(fad_source(spec), X, crosscheck_to=0)
    for g in three_statistics(cen):
        bc = joint_census(g, X, census=cen)
        assert (bc.D, list(bc.rows)) == oracles.ascending_joint_rows(g.classes, X)


@settings(max_examples=40, deadline=None)
@given(st.one_of(diagonal_specs().map(lambda case: case[0]), padic_product_forms()), st.integers(1, 40))
def test_joint_census_matches_the_evaluated_log_derivative_on_generated_forms(spec, X):
    cen = build_census(fad_source(spec), X, crosscheck_to=0)
    for g in three_statistics(cen):
        bc = joint_census(g, X, census=cen)
        assert (bc.D, list(bc.rows)) == oracles.evaluated_joint_rows(g.classes, X)


@pytest.mark.parametrize("name,params", [("FF", {"q": 2}), ("E", {"p": 3, "n": 2}), ("GM", {})])
def test_joint_census_matches_the_evaluated_log_derivative_at_x120(name, params):
    cen = build_census(builtin_source(name, **params), 120, crosscheck_to=0)
    for g in three_statistics(cen):
        bc = joint_census(g, 120, census=cen)
        assert (bc.D, list(bc.rows)) == oracles.evaluated_joint_rows(g.classes, 120)


def test_packed_rows_equal_keyed_rows_on_both_sides_of_the_bound(e32_source):
    for source, X, S in ((e32_source, 120, 242), (builtin_source("FF", q=1024), 70, 702)):
        cen = build_census(source, X, crosscheck_to=0)
        assert distribution._slot_bits(cen.sigma, X) == S
        live = [(ell, cen.primes[ell], Fraction(1)) for ell in range(1, X + 1)]
        rows = distribution._keyed_rows(live, X, 1)
        assert distribution._packed_rows(live, X, 1, S) == rows
        assert [sum(row.values()) for row in rows] == cen.totals
    assert 242 <= distribution._PACKED_SLOT_BITS < 702


@pytest.mark.parametrize("X", [60, 200])
def test_slot_width_is_the_smaller_of_the_dold_and_saddle_bounds(X):
    # the saddle-point bound on N(X) is the tighter on GM, within 1.15x its
    # largest count; the Dold width s^X stays on FF(q), E(3,2) and GA
    for name, params in (("GM", {}), ("FF", {"q": 2}), ("E", {"p": 3, "n": 2}), ("GA", {}), ("FF", {"q": 1024})):
        cen = build_census(builtin_source(name, **params), X, crosscheck_to=0)
        S = distribution._slot_bits(cen.sigma, X)
        widest = max(n.bit_length() for n in cen.totals)
        dold = floor(X * max(log2(s) / k for k, s in enumerate(cen.sigma) if s)) + 2
        assert widest < S
        if name != "GM":
            assert S == dold
            continue
        assert S <= 1.15 * widest < dold
        g = unit_weights(cen)
        assert (1, list(joint_census(g, X, census=cen).rows)) == oracles.ascending_joint_rows(g.classes, X)


def test_joint_census_scales_to_x120(e32_source):
    cen = build_census(e32_source, 120)
    bc = joint_census(unit_weights(cen), 120, census=cen)
    for n in range(121):
        assert sum(bc.rows[n].values()) == cen.totals[n]
    lemma, via_pmf = expected_w(cen, 120)
    assert lemma == via_pmf


def test_joint_census_is_kept_on_its_census(ff2_source, monkeypatch):
    cen = build_census(ff2_source, 12)
    bc = joint_census(unit_weights(cen), 10, census=cen)
    assert joint_census(unit_weights(cen), 10, census=cen) is bc
    # another window, or other weights, is a census of its own
    other_x = joint_census(unit_weights(cen), 9, census=cen)
    even = subset_weights(cen, lambda ell: ell % 2 == 0)
    subset = joint_census(even, 10, census=cen)
    assert len({id(bc), id(other_x), id(subset)}) == 3
    # E[W] reuses the unit-weight census: no factor of the product is built again
    factors = []
    real_comb = distribution.comb

    def counting_comb(*args):
        factors.append(args)
        return real_comb(*args)

    monkeypatch.setattr(distribution, "comb", counting_comb)
    lemma, via_pmf = expected_w(cen, 10)
    assert lemma == via_pmf == w_pmf(bc).mean()
    assert factors == []
    # another census of the same source builds and keeps censuses of its own
    fresh = build_census(ff2_source, 12)
    first = joint_census(unit_weights(fresh), 10, census=fresh)
    assert factors and first is not bc and first.rows == bc.rows
    assert joint_census(unit_weights(fresh), 9, census=fresh).rows == other_x.rows
    assert joint_census(subset_weights(fresh, lambda ell: ell % 2 == 0), 10, census=fresh).rows == subset.rows
    assert fresh.joint_censuses.keys() == {(10, unit_weights(fresh).classes[:11]),
                                           (9, unit_weights(fresh).classes[:10]), (10, even.classes[:11])}


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


def decay_weights(P, X, lam):
    """g with per-prime weight lam^(-ell) at each length ell <= X."""
    return WeightedAdditive(tuple(P[: X + 1]), ((),) + tuple(((P[ell], lam**-ell),) for ell in range(1, X + 1)))


def test_length_decay_statistic_matches_dfs(e32_census):
    # each length's primes split into three classes, weighted 4^(-ell), 1/2
    # and -1/3 as evenly as the count allows
    X = 5
    P = e32_census.primes
    weights = (lambda ell: Fraction(1, 4**ell), lambda ell: Fraction(1, 2), lambda ell: Fraction(-1, 3))
    classes, labeled = [()], {}
    for ell in range(1, X + 1):
        parts = tuple((P[ell] // 3 + (i < P[ell] % 3), w(ell)) for i, w in enumerate(weights))
        classes.append(parts)
        labeled[ell] = [w for count, w in parts for _ in range(count)]
    assert all(count for parts in classes[3:] for count, _ in parts)
    bc = joint_census(WeightedAdditive(tuple(P[: X + 1]), tuple(classes)), X, census=e32_census)
    cells = {(n, Fraction(key, bc.D)): c for n, row in enumerate(bc.rows) for key, c in row.items()}
    assert cells == oracles.brute_weighted_census(labeled, X)
    # the single-class length decay against the profile enumerator
    results = oracles.brute_enumerate({ell: P[ell] for ell in range(1, X + 1)}, X)
    bc = joint_census(decay_weights(P, X, Fraction(4)), X, census=e32_census)
    expected = brute_value_pmf(
        results, X, lambda profile: sum(Fraction(d, 4**l) for l, _, d in profile)
    )
    assert dict(w_pmf(bc, X).atoms) == expected


def test_w_pmf_edges(ff2_census):
    bc = joint_census(unit_weights(ff2_census), 6, census=ff2_census)
    at_zero = w_pmf(bc, 0)
    assert at_zero.atoms == ((Fraction(0), Fraction(1)),)
    with pytest.raises(ValueError, match="outside"):
        w_pmf(bc, 7)
    with pytest.raises(ValueError, match="outside"):
        w_pmf(bc, -1)


# -- expectation and Laplace transform -----------------------------------------------


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

    def mgf(X, theta):
        return oracles.naive_laplace(w_pmf(bc, X).atoms, theta, 128)

    with mp.workprec(100):
        assert abs(mgf(6, 0) - 1) < mp.mpf(2) ** -80
        # E[2^W] at X = 2: (1 + 2*5 + 4)/7
        v = mgf(2, mp.log(2))
        assert abs(v - mp.mpf(15) / 7) < mp.mpf(2) ** -80
        assert mgf(6, 1) > mgf(6, 0.5) > 1


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
    g = decay_weights(ff2_census.primes, 60, Fraction(2))
    vals = []
    for X in (15, 30, 60):
        rho = rho_measure(g, ff2_census, X)
        assert rho.total_mass() == 1
        vals.append(oracles.naive_laplace(rho.atoms, 1, 128))
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
