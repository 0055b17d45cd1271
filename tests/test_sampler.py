"""Exact-uniform orbit sampling: determinism, marginals, and uniformity
against the DFS enumerator's class probabilities."""

import hashlib
import io
import random
from fractions import Fraction
from math import sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitstat import (
    OrbitSample,
    RandomStream,
    build_census,
    builtin_source,
    distinct_parts,
    joint_census,
    monte_carlo_tail,
    sample_orbit,
    sampler_for,
    table_source,
    unit_weights,
    w_pmf,
    wilson_interval,
    write_samples_csv,
)

import oracles


# -- the raw stream -------------------------------------------------------------


def test_stream_determinism():
    a = [RandomStream(42, 7).randbelow(10**12) for _ in range(50)]
    b = [RandomStream(42, 7).randbelow(10**12) for _ in range(50)]
    assert a == b
    c = [RandomStream(42, 8).randbelow(10**12) for _ in range(50)]
    assert a != c
    d = [RandomStream(43, 7).randbelow(10**12) for _ in range(50)]
    assert a != d


def test_randbelow_bounds_and_errors():
    rng = RandomStream(0)
    for n in (1, 2, 7, 255, 256, 257, 10**30):
        for _ in range(20):
            v = rng.randbelow(n)
            assert 0 <= v < n
    assert rng.randbelow(1) == 0
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_randbelow_is_roughly_uniform():
    rng = RandomStream(123)
    counts = [0] * 5
    trials = 20000
    for _ in range(trials):
        counts[rng.randbelow(5)] += 1
    for c in counts:
        # 5 sigma around trials/5 with sigma = sqrt(n p (1-p))
        assert abs(c - trials / 5) < 5 * sqrt(trials * 0.2 * 0.8)


# small bounds of 1-13 bytes, so draws straddle many 256-byte block edges
SMALL_BOUNDS = [2, 3, 7, 255, 256, 257, 10**12, 2**64 - 1, 10**30] * 60
# 263-, 300-, 257- and 5000-byte draws: refills above 256 bytes, of 66, 75,
# 65 and 1250 32-bit words, each followed by small draws
BIG_BOUNDS = [(1 << 2100) - 3, 10**6, (1 << 2400) // 7, 5, (1 << 2050) + 1, 2**40, (1 << 40000) // 3, 9] * 4
STREAM_INDICES = (0, 1, 2, 5, 1000, 2**40, 2**64 + 7, 2**128 + 3, -1)


@pytest.mark.parametrize("index", STREAM_INDICES)
@pytest.mark.parametrize("seed", (1, 42))
def test_stream_matches_reference_construction(seed, index):
    for bounds in (SMALL_BOUNDS, BIG_BOUNDS, BIG_BOUNDS + SMALL_BOUNDS):
        rng = RandomStream(seed, index)
        assert [rng.randbelow(n) for n in bounds] == oracles.oracle_stream(seed, index, bounds)


def test_interleaved_streams_stay_independent():
    bounds = SMALL_BOUNDS[:200] + BIG_BOUNDS
    a, b = RandomStream(9, 3), RandomStream(9, 4)
    got_a, got_b = [], []
    for n in bounds:
        got_a.append(a.randbelow(n))
        got_b.append(b.randbelow(n))
        got_b.append(b.randbelow(n))
    assert got_a == oracles.oracle_stream(9, 3, bounds)
    assert got_b == oracles.oracle_stream(9, 4, [n for n in bounds for _ in range(2)])


# sha256 of "n profile" lines for RandomStream(1, i), i < 300
DRAW_DIGESTS = {
    ("FF", (("q", 2),), 200): "bfdc14337dd6c34038ad524a12a858084de7ce493c133e76b7b4768ccb825c2e",
    ("E", (("p", 3), ("n", 2)), 60): "bf80a81c93c9f3dc31e13697f9593608d19bbc1f84a03fbedc47f598b40ba128",
    ("GM", (), 40): "6f569af4799e2206ee035dd10e70d896c2a4217cfbfa24b4af5b2be1e346aac0",
}


@pytest.mark.parametrize("name, params, X", list(DRAW_DIGESTS))
def test_draws_are_pinned(name, params, X):
    sampler = sampler_for(build_census(builtin_source(name, **dict(params)), X), X)
    draws = (sampler.sample(RandomStream(1, i)) for i in range(300))
    rows = "\n".join(f"{s.n} {s.profile}" for s in draws)
    assert hashlib.sha256(rows.encode()).hexdigest() == DRAW_DIGESTS[(name, params, X)]


# -- profile pieces --------------------------------------------------------------


def test_orbit_sample_validation():
    s = OrbitSample(n=5, profile=((1, 3, 2), (2, 1, 1)))
    assert s.W == 3
    with pytest.raises(ValueError, match="sum to n"):
        OrbitSample(n=4, profile=((1, 3, 2),))
    with pytest.raises(ValueError, match="invalid profile"):
        OrbitSample(n=2, profile=((1, 2, 3),))


def test_distinct_parts_distribution():
    # P = 2 types, k = 2 copies: multisets {aa}, {bb}, {ab}, so d = 2 in 1 of 3.
    rng = RandomStream(99)
    trials = 30000
    twos = sum(1 for _ in range(trials) if distinct_parts(2, 2, rng) == 2)
    p = Fraction(1, 3)
    sigma = sqrt(trials * float(p) * (1 - float(p)))
    assert abs(twos - trials * float(p)) < 4 * sigma


def test_distinct_parts_degenerate_cases():
    rng = RandomStream(1)
    assert all(distinct_parts(1, k, rng) == 1 for k in (1, 2, 5))
    assert all(distinct_parts(p, 1, rng) == 1 for p in (1, 2, 5))
    with pytest.raises(ValueError):
        distinct_parts(0, 1, rng)


# -- the sampler ------------------------------------------------------------------


def test_sampler_tables_cross_check(ff2_census):
    sampler = sampler_for(ff2_census, 20)
    assert sampler.suffix[20] == list(ff2_census.totals[:21])
    assert sampler.grand_total == ff2_census.count_orbits(20)
    # cache: same object on repeat, separate per X
    assert sampler_for(ff2_census, 20) is sampler
    assert sampler_for(ff2_census, 10) is not sampler


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), X=st.integers(1, 24))
def test_sampler_on_generated_systems(seed, X):
    # random P_ell in [0, 12): completion tables against the census, every
    # draw a valid profile, and for X <= 6 only classes the enumerator finds
    sigma, P = oracles.random_sigma_table(random.Random(seed), X)
    cen = build_census(table_source(sigma[1:]), X)
    sampler = sampler_for(cen, X)
    assert sampler.suffix[X] == list(cen.totals)
    assert sampler.cumulative[-1] == sampler.grand_total == cen.count_orbits(X)
    support = None
    if X <= 6:
        P_map = {ell: P[ell] for ell in range(1, X + 1)}
        support = oracles.brute_class_probabilities(oracles.brute_enumerate(P_map, X), X)
    for i in range(60):
        s = sampler.sample(RandomStream(seed, i))
        assert 0 <= s.n <= X
        for ell, k, d in s.profile:
            assert 1 <= d <= min(k, P[ell])
        if support is not None:
            assert s.profile in support


def test_sampler_range_guard(ff2_census):
    with pytest.raises(ValueError, match="beyond census"):
        sampler_for(ff2_census, 61)


def test_samples_are_valid_orbits(ff2_census, e32_census):
    for cen, X in ((ff2_census, 12), (e32_census, 9)):
        for i in range(200):
            s = sample_orbit(cen, X, RandomStream(7, i))
            assert 0 <= s.n <= X
            assert sum(ell * k for ell, k, _ in s.profile) == s.n
            for ell, k, d in s.profile:
                assert cen.primes[ell] >= d >= 1


def test_sampler_x_zero(ff2_census):
    s = sample_orbit(ff2_census, 0, RandomStream(3))
    assert s.n == 0 and s.profile == ()


def test_sampler_respects_bounded_w(per13_census):
    # sigma = (1,3) has only P_1 = P_2 = 1, so W <= 2 whatever the length.
    for i in range(300):
        s = sample_orbit(per13_census, 10, RandomStream(11, i))
        assert s.W <= 2
        assert all(d == 1 for _, _, d in s.profile)


def test_sampler_uniformity_against_dfs(ff2_census):
    # Exact class probabilities from the enumerator vs empirical frequencies:
    # every class within 4 sigma (pre-registered band, one shot, fixed seed).
    X = 6
    P = {ell: ff2_census.primes[ell] for ell in range(1, X + 1)}
    expected = oracles.brute_class_probabilities(oracles.brute_enumerate(P, X), X)
    trials = 100000
    sampler = sampler_for(ff2_census, X)
    counts = {}
    for i in range(trials):
        s = sampler.sample(RandomStream(2024, i))
        counts[s.profile] = counts.get(s.profile, 0) + 1
    assert set(counts) <= set(expected)
    for profile, prob in expected.items():
        p = float(prob)
        sigma = sqrt(trials * p * (1 - p))
        assert abs(counts.get(profile, 0) - trials * p) <= 4 * sigma, profile


def test_monte_carlo_tail_covers_exact_value(ff2_census):
    bc = joint_census(unit_weights(ff2_census), 2, census=ff2_census)
    exact = float(w_pmf(bc, 2).tail_mass(2))  # P[W >= 2] = 1/7
    est = monte_carlo_tail(ff2_census, 2, 2, 20000, seed=5)
    assert est.covers(exact)
    assert est.interval[0] <= est.estimate <= est.interval[1]


def test_monte_carlo_tail_edges(ff2_census):
    always = monte_carlo_tail(ff2_census, 4, 0, 500, seed=1)
    assert always.hits == 500 and always.estimate == 1.0
    never = monte_carlo_tail(ff2_census, 4, 99, 500, seed=1)
    assert never.hits == 0 and never.estimate == 0.0
    assert never.interval[0] < 1e-12
    with pytest.raises(ValueError):
        monte_carlo_tail(ff2_census, 4, 1, 0, seed=1)


def test_wilson_interval_sane():
    lo, hi = wilson_interval(50, 100)
    assert 0.4 < lo < 0.5 < hi < 0.6
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 < 1e-12 and hi0 > 0.01
    lo1, hi1 = wilson_interval(100, 100)
    assert hi1 > 1 - 1e-12 and lo1 < 0.99


def test_csv_export_is_byte_identical(ff2_census):
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_samples_csv(buf, ff2_census, 10, 50, seed=77)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    lines = bufs[0].splitlines()
    assert lines[0] == "index,n,W,profile"
    assert len(lines) == 51
    assert lines[1].startswith("0,")


def test_streams_insensitive_to_call_batching():
    # Drawing sample i fresh must equal drawing it inside a longer loop:
    # the per-index substream design, not shared-state consumption.
    cen = build_census(builtin_source("FF", q=2), 12)
    sampler = sampler_for(cen, 12)
    batched = [sampler.sample(RandomStream(31, i)).profile for i in range(20)]
    single = sampler.sample(RandomStream(31, 13)).profile
    assert single == batched[13]
