"""Exact-uniform orbit sampling: determinism, marginals, and uniformity
against the DFS enumerator's class probabilities."""

import gc
import hashlib
import io
import json
import random
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction
from itertools import accumulate, chain, zip_longest
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
    sample_orbit,
    sampler_for,
    table_source,
    unit_weights,
    w_pmf,
    write_samples_csv,
)

from orbitstat import kernels
from orbitstat import sampler as sampler_module

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


@pytest.mark.parametrize("seed, index", [(1.9, 0), (True, 0), (True, 0.7), (-1, 0), ("1", 0), (1, 0.0),
                                         (1, False), (1, "2"), (None, 0)])
def test_stream_parameters_are_never_truncated(seed, index):
    # int() would read RandomStream(1.9, 0) and RandomStream(True, 0.7) as
    # RandomStream(1, 0); they must be refused instead
    with pytest.raises(ValueError, match="stream (seed|index)"):
        RandomStream(seed, index)


def test_streams_of_one_seed_share_a_generator_across_threads():
    # 4 threads, each with its own 4 streams of seed 5, positioning the seed's
    # one Philox for every chunk; a short switch interval interleaves them
    bounds = [n for n in chain.from_iterable(zip_longest(SMALL_BOUNDS[:240], BIG_BOUNDS * 6)) if n is not None]
    indices = [tuple(range(5 * t, 5 * t + 4)) for t in range(4)]
    got = {}

    def draw(own):
        streams = [RandomStream(5, i) for i in own]
        rows = {i: [] for i in own}
        for n in bounds:
            for i, rng in zip(own, streams):
                rows[i].append(rng.randbelow(n))
        got.update(rows)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(own,)) for own in indices]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    for own in indices:
        for i in own:
            assert got[i] == oracles.oracle_stream(5, i, bounds), i


def test_streams_of_one_seed_build_one_philox(monkeypatch):
    # numpy's Philox builds a SeedSequence from OS entropy on every
    # construction; a stream must reuse its seed's generator instead
    Philox = sampler_module._philox()
    built = []

    def counting_philox(*args, **kwargs):
        built.append(kwargs)
        return Philox(*args, **kwargs)

    monkeypatch.setattr(sampler_module, "_philox", lambda: counting_philox)
    sampler_module._seeded.cache_clear()
    try:
        for i in range(1000):
            rng = RandomStream(17, i)
            # a 4 KB chunk, then a 4126-byte draw that needs a second one
            rng.randbelow(10**12)
            rng.randbelow(1 << 33000)
        assert len(built) <= 2
    finally:
        sampler_module._seeded.cache_clear()


def test_randbelow_accept_boundary():
    # n = 10^6 takes 3 bytes, span = 2^24 and span % n = 777216, so
    # [span - n, limit) is the range only the exact limit test accepts
    n = 10**6
    span = 1 << 24
    limit = span - span % n
    fed = [span - n - 1, span - n, limit - 1, limit, 5]
    rng = RandomStream(0)
    rng._buf = b"".join(r.to_bytes(3, "big") for r in fed)
    rng._pos, rng._end, rng._next = 0, len(rng._buf), len(rng._buf)
    got = [rng.randbelow(n) for _ in range(4)]
    assert rng._pos == len(rng._buf)
    # the rule before the shortcut: accept r exactly when r < limit
    old = [r % n for r in fed if r < limit]
    assert got == old == [(span - n - 1) % n, (span - n) % n, (limit - 1) % n, 5]


def test_randbelow_rejection_rate_is_below_a_third():
    # b // 8 + 1 bytes for an n of b bits make span > 2n, so span % n / span,
    # the share of reads rejected, is below 1/3; the worst n below 2^16
    # rejects 21844 of 65536
    def rate(n, w):
        span = 1 << (8 * w)
        return Fraction(span % n, span)

    assert max((rate(n, n.bit_length() // 8 + 1), n) for n in range(2, 1 << 16)) == (Fraction(21844, 65536), 21846)
    for name, params, X in (("FF", {"q": 2}, 200), ("E", {"p": 3, "n": 2}, 60)):
        sampler = sampler_for(build_census(builtin_source(name, **params), X), X)
        # row 0 is never read; every cell of the others is a bound >= 1
        rows = zip(sampler.suffix[1:], sampler.widths[1:])
        cells = [(bound, w) for row, wrow in rows for bound, w in zip(row, wrow)]
        cells += [(P, pw) for P, _, _, _, pw in sampler.steps[1:]]
        assert {w for _, w in cells} == set(sampler.spans)
        for bound, w in cells:
            assert w == bound.bit_length() // 8 + 1
            assert rate(bound, w) < Fraction(1, 3)


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


# -- the inlined descent against one randbelow per step ----------------------------


def _same_draw(sampler, a, b):
    """sample on stream a, the reference descent on stream b (same bytes):
    equal draws, and both streams left at the same byte and counter."""
    s = sampler.sample(a)
    assert (s.n, s.profile) == oracles.reference_sample(sampler, b)
    assert (a._pos, a._end, a._next, a._counter) == (b._pos, b._end, b._next, b._counter)


def _fed(data, cut, seed=0):
    """A stream whose current block is data[:cut], followed by 256-byte blocks
    of data[cut:] and then by the seed's own Philox bytes."""
    rng = RandomStream(seed)
    rng._buf, rng._pos, rng._end, rng._next = data, 0, cut, cut
    return rng


BUILTINS = [("FF", {"q": 2}, 120), ("E", {"p": 3, "n": 2}, 60), ("GA", {}, 60), ("GM", {}, 40),
            ("periodic", {"values": (1, 3)}, 30)]


@pytest.mark.parametrize("name, params, X", BUILTINS)
def test_sample_matches_the_reference_descent(name, params, X):
    sampler = sampler_for(build_census(builtin_source(name, **params), X), X)
    for i in range(200):
        _same_draw(sampler, RandomStream(1, i), RandomStream(1, i))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), X=st.integers(1, 40))
def test_sample_matches_the_reference_descent_on_generated_tables(seed, X):
    # random P_ell in [0, 12): zero counts skip lengths, P_1 = 1 makes
    # one-value cells
    sigma, _ = oracles.random_sigma_table(random.Random(seed), X)
    sampler = sampler_for(build_census(table_source(sigma[1:]), X), X)
    for i in range(30):
        _same_draw(sampler, RandomStream(seed, i), RandomStream(seed, i))


def test_sample_accept_boundary():
    # the first step of a full-length draw on E(3,2) at X=10 reads the cell
    # (10, 10): feed it span - 1 and the exact limit (both rejected), then
    # span - bound (only the exact test accepts it), then arbitrary bytes
    sampler = sampler_for(build_census(builtin_source("E", p=3, n=2), 10), 10)
    total = sampler.grand_total
    bound = sampler.suffix[10][10]
    w = sampler.widths[10][10]
    span = 1 << (8 * w)
    limit = span - span % bound
    assert w == bound.bit_length() // 8 + 1 and span - bound < limit < span
    first = sampler.cumulative[9]  # the least r that draws n = 10
    head = first.to_bytes(total.bit_length() // 8 + 1, "big")
    head += b"".join(x.to_bytes(w, "big") for x in (span - 1, limit, span - bound))
    for seed in range(20):
        data = head + random.Random(seed).randbytes(2048)
        a, b = _fed(data, len(data)), _fed(data, len(data))
        _same_draw(sampler, a, b)
        assert a._pos > len(head)


def _reads(monkeypatch, sampler, data):
    """(kind, start, stop) of each read the reference descent accepts on data
    as one block: kind is "length", "cell", "one" (the randbelow(P) of one
    copy at a length) or "parts" (distinct_parts for two or more copies)."""
    rng = _fed(data, len(data))
    reads, within = [], []
    randbelow, parts = rng.randbelow, oracles.reference_distinct_parts

    def recorded(n):
        kind = within[-1] if within else "cell" if calls else "length"
        calls.append(n)
        r = randbelow(n)
        if n > 1:
            reads.append((kind, rng._pos - (n.bit_length() // 8 + 1), rng._pos))
        return r

    def flagged(P, k, rng):
        within.append("one" if k == 1 else "parts")
        try:
            return parts(P, k, rng)
        finally:
            within.pop()

    calls = []
    rng.randbelow = recorded
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "reference_distinct_parts", flagged)
        oracles.reference_sample(sampler, rng)
    return reads


@pytest.mark.parametrize("name, params, X", [("FF", {"q": 2}, 60), ("E", {"p": 3, "n": 2}, 40)])
def test_sample_refills_at_every_byte(monkeypatch, name, params, X):
    # the current block ends at each byte a draw reads, so the block changes
    # in every place it can: the length draw, mid-descent, the k = 1 read and
    # distinct_parts. While the buffer holds the next block, sample moves to
    # it inline; a buffer that ends at the cut makes sample call _refill
    sampler = sampler_for(build_census(builtin_source(name, **params), X), X)
    refill = RandomStream._refill
    refills = []

    def counted_refill(self, nbytes):
        refills.append((self, sys._getframe(1).f_code.co_name))
        refill(self, nbytes)

    inline = 0
    ran_out = {"cell": 0, "one": 0}
    for seed in range(4):
        data = random.Random(seed).randbytes(4096)
        reads = _reads(monkeypatch, sampler, data)
        monkeypatch.setattr(RandomStream, "_refill", counted_refill)
        for cut in range(1, reads[-1][2] + 1):
            a, b = _fed(data, cut), _fed(data, cut)
            refills.clear()
            _same_draw(sampler, a, b)
            # the reference changes block only by _refill, and a reads the same
            # blocks, so each of a's block changes without one was inline
            inline += sum(s is b for s, _ in refills) - sum(s is a for s, _ in refills)
            assert not any(s is a and caller == "sample" for s, caller in refills)
        for kind in ran_out:
            cells = [stop for k, _, stop in reads if k == kind]
            if cells:
                cut = cells[len(cells) // 2] - 1  # inside the read, or at its start
                a, b = _fed(data[:cut], cut), _fed(data[:cut], cut)
                refills.clear()
                _same_draw(sampler, a, b)
                ran_out[kind] += sum(s is a and caller == "sample" for s, caller in refills)
        monkeypatch.undo()
    assert inline >= 400 and min(ran_out.values()) >= 2, (inline, ran_out)


def test_sample_reads_no_byte_for_one_value_cells(per13_census):
    # P_1 = P_2 = 1: every cell at ell = 1 holds 1, randbelow(1) reads nothing
    sampler = sampler_for(per13_census, 16)
    assert set(sampler.suffix[1]) == {1}
    data = random.Random(5).randbytes(1024)
    for cut in range(1, 40):
        _same_draw(sampler, _fed(data, cut), _fed(data, cut))
    for i in range(200):
        _same_draw(sampler, RandomStream(3, i), RandomStream(3, i))


def test_sample_reads_cells_wider_than_255_bytes():
    # FF(2^2100) at X=3: N_3 has 6300 bits, a 788-byte cell
    sampler = sampler_for(build_census(builtin_source("FF", q=2**2100), 3, crosscheck_to=0), 3)
    assert max(max(row) for row in sampler.widths) == 788
    for i in range(100):
        _same_draw(sampler, RandomStream(1, i), RandomStream(1, i))


def test_width_table_stays_small(ff2_source):
    # FF(2) at X=200: 40401 cells, about 160 KB as 4-byte widths
    cen = build_census(ff2_source, 200)
    tracemalloc.start()
    try:
        sampler = sampler_module.OrbitSampler(cen, 200)
        held = tracemalloc.get_traced_memory()[0]
        del sampler.widths, sampler.steps, sampler.spans
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < freed < 0.5 * 2**20


# -- profile pieces --------------------------------------------------------------


def _profile_error(n, profile):
    """The error of a two-pass check: the sum first, then the first bad
    entry, one with k < 1, d < 1, d > k, ell < 1 or ell at most the length
    before it; None when the profile is valid."""
    if sum(ell * k for ell, k, _ in profile) != n:
        return "profile lengths do not sum to n"
    lengths = [0] + [ell for ell, _, _ in profile]
    for (ell, k, d), before in zip(profile, lengths):
        if k < 1 or d < 1 or d > k or ell < 1 or ell <= before:
            return f"invalid profile entry at ell={ell}"
    return None


def test_orbit_sample_validation():
    s = OrbitSample(n=5, profile=((1, 3, 2), (2, 1, 1)))
    assert s.W == 3
    with pytest.raises(ValueError, match="sum to n"):
        OrbitSample(n=4, profile=((1, 3, 2),))
    with pytest.raises(ValueError, match="invalid profile"):
        OrbitSample(n=2, profile=((1, 2, 3),))
    # W is stored but neither compared, hashed nor shown
    t = OrbitSample(n=5, profile=((1, 3, 2), (2, 1, 1)))
    object.__setattr__(t, "W", 99)
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t) == "OrbitSample(n=5, profile=((1, 3, 2), (2, 1, 1)))"
    assert s != OrbitSample(n=5, profile=((1, 3, 1), (2, 1, 1)))
    # inputs that fail both checks (the first, second and sixth), or one,
    # raise what the two passes do; the last six list a length below 1,
    # twice or out of order, two of them also with a wrong sum
    cases = [(3, ((1, 2, 3),)), (9, ((1, 1, 1), (2, 0, 1))), (4, ((1, 1, 0), (3, 1, 2))),
             (4, ((1, 2, 2), (2, 1, 2))), (5, ((1, 1, 1), (2, 0, 1), (4, 1, 2))),
             (2, ((1, 0, 1),)), (7, ((1, 1, 1), (2, 1, 1), (4, 1, 1))), (0, ()), (1, ()),
             (0, ((0, 5, 1),)), (0, ((-1, 1, 1), (1, 1, 1))), (2, ((1, 1, 1), (1, 1, 1))),
             (5, ((3, 1, 1), (2, 1, 1))), (9, ((3, 1, 1), (2, 1, 1))), (3, ((0, 1, 1), (1, 1, 2)))]
    for n, profile in cases:
        expected = _profile_error(n, profile)
        if expected is None:
            assert OrbitSample(n=n, profile=profile).W == sum(d for _, _, d in profile)
        else:
            with pytest.raises(ValueError) as err:
                OrbitSample(n=n, profile=profile)
            assert str(err.value) == expected
    # W from the one pass on the pinned draws
    for name, params, X in DRAW_DIGESTS:
        sampler = sampler_for(build_census(builtin_source(name, **dict(params)), X), X)
        for i in range(300):
            draw = sampler.sample(RandomStream(1, i))
            assert draw.W == sum(d for _, _, d in draw.profile)


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
    # kept on the census: same object on repeat, separate per X
    assert sampler_for(ff2_census, 20) is sampler is ff2_census.samplers[20]
    assert sampler_for(ff2_census, 10) is not sampler


@pytest.mark.parametrize("key, X, prefix", [("table", 60, True), ("FF(2^64)", 12, False)])
def test_sampler_tables_on_both_routes(monkeypatch, key, X, prefix):
    # a seeded table (P_ell < 12) divides its short factors out by running
    # sums; every factor of FF(2^64) is past prefix_route_max
    if key == "table":
        source = table_source(oracles.random_sigma_table(random.Random(3), X)[0][1:])
    else:
        source = builtin_source("FF", q=2**64)
    cen = build_census(source, X, crosscheck_to=0)
    sums = []
    monkeypatch.setattr(kernels, "accumulate", lambda seq: sums.append(seq) or accumulate(seq))
    assert sampler_for(cen, X).grand_total == cen.count_orbits(X)
    assert bool(sums) == prefix


def test_a_sampled_census_is_freed(e32_source):
    # the census owns its samplers, so nothing outside it keeps it alive
    cen = build_census(e32_source, 24)
    sample_orbit(cen, 24, RandomStream(1, 0))
    freed = weakref.ref(cen)
    del cen
    gc.collect()
    assert freed() is None


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
    # the share of draws with W >= 2 against w_pmf's exact tail p: p lies in
    # the 95% Wilson interval of the share exactly when this score test holds
    bc = joint_census(unit_weights(ff2_census), 2, census=ff2_census)
    exact = sum(m for v, m in w_pmf(bc, 2).atoms if v >= 2)
    assert exact == Fraction(1, 7)
    trials = 20000
    hits = sum(sample_orbit(ff2_census, 2, RandomStream(5, i)).W >= 2 for i in range(trials))
    p = float(exact)
    assert abs(hits - trials * p) <= 1.959963984540054 * sqrt(trials * p * (1 - p))


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


def test_csv_profiles_are_compact_json(ff2_census):
    buf = io.StringIO()
    write_samples_csv(buf, ff2_census, 30, 100, seed=4)
    sampler = sampler_for(ff2_census, 30)
    rows = ["index,n,W,profile"]
    for i in range(100):
        s = sampler.sample(RandomStream(4, i))
        prof = json.dumps([list(entry) for entry in s.profile], separators=(",", ":"))
        rows.append('%d,%d,%d,"%s"' % (i, s.n, s.W, prof))
    assert buf.getvalue() == "\n".join(rows) + "\n"
    assert sum(s.count("],[") >= 2 for s in rows) >= 20


def test_streams_insensitive_to_call_batching():
    # Drawing sample i fresh must equal drawing it inside a longer loop:
    # the per-index substream design, not shared-state consumption.
    cen = build_census(builtin_source("FF", q=2), 12)
    sampler = sampler_for(cen, 12)
    batched = [sampler.sample(RandomStream(31, i)).profile for i in range(20)]
    single = sampler.sample(RandomStream(31, 13)).profile
    assert single == batched[13]
