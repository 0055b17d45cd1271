"""Seedable exact-uniform sampling over general orbits of length <= X.

Orbits are sampled as length profiles (never materializing prime
identities, whose counts are astronomically large at moderate lengths):
first the total length n with probability N_n/N(X), then for each length
ell in descending order the multiplicity k_ell, weighted by the exact
number of ways to complete the remainder from shorter lengths, and
finally the number of distinct primes d_ell at each length from the
uniform-multiset distinct-part distribution. All thresholds are exact big
integers against a counter-based RNG, so identical seeds reproduce
identical streams regardless of batching.

The RNG is numpy's Philox, imported when the first stream is built: the
rest of the package (censuses, constants, distributions, rate functions,
the CLI commands that never draw) does not load numpy.
"""

import json
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb, sqrt

from orbitstat import kernels

# raw 64-bit Philox words fetched at a time: 4 KB, about one long draw
_CHUNK_WORDS = 512


@lru_cache(maxsize=None)
def _philox():
    """numpy.random.Philox, imported on first use and kept."""
    from numpy.random import Philox

    return Philox


@lru_cache(maxsize=64)
def _philox_key(seed):
    return _philox()(seed=seed).state["state"]["key"]


class RandomStream:
    """Counter-based substream: (seed, index) fully determines the draws.

    The Philox key comes from the seed and stream index i starts the counter
    at i * 2^128 (mod 2^256), the stream Philox(seed).jumped(i) gives, so
    per-sample substreams are independent and reproducible across any
    thread layout. Bytes are consumed in blocks of max(nbytes, 256), each
    starting at the next unused 32-bit word, exactly as Generator.bytes
    would serve them. randbelow(n) is exact-uniform via byte-block
    rejection sampling.
    """

    def __init__(self, seed, index=0):
        self._bitgen = _philox()(key=_philox_key(int(seed)), counter=(int(index) << 128) % (1 << 256))
        self._buf = b""
        self._pos = 0  # next unread byte of the current block
        self._end = 0  # end of the current block
        self._next = 0  # start of the next block

    def _refill(self, nbytes):
        size = max(nbytes, 256)
        start = self._next
        if start + size > len(self._buf):
            words = max(_CHUNK_WORDS, size // 8 + 1)
            self._buf = self._buf[start:] + self._bitgen.random_raw(words).tobytes()
            start = 0
        self._pos = start
        self._end = start + size
        self._next = start + (size + 3) // 4 * 4

    def randbelow(self, n):
        if n <= 1:
            if n == 1:
                return 0
            raise ValueError("randbelow needs a positive bound")
        # one spare byte keeps the rejection rate under 1/256
        nbytes = n.bit_length() // 8 + 1
        span = 1 << (8 * nbytes)
        limit = span - span % n
        while True:
            pos = self._pos
            end = pos + nbytes
            if end > self._end:
                self._refill(nbytes)
                pos = self._pos
                end = pos + nbytes
            self._pos = end
            r = int.from_bytes(self._buf[pos:end], "big")
            if r < limit:
                return r % n


@dataclass(frozen=True)
class OrbitSample:
    """A sampled orbit as (total length, per-length profile).

    profile holds (ell, k_ell, d_ell) triples for lengths actually used:
    k_ell copies drawn at length ell, d_ell of them distinct.
    """

    n: int
    profile: tuple

    def __post_init__(self):
        if sum(ell * k for ell, k, _ in self.profile) != self.n:
            raise ValueError("profile lengths do not sum to n")
        for ell, k, d in self.profile:
            if k < 1 or d < 1 or d > k:
                raise ValueError(f"invalid profile entry at ell={ell}")

    @property
    def W(self):
        return sum(d for _, _, d in self.profile)


def distinct_parts(P, k, rng):
    """Number of distinct types in a uniform size-k multiset over P types:
    P[d] = C(P,d) C(k-1,d-1) / C(P+k-1,k), drawn with exact thresholds."""
    if P < 1 or k < 1:
        raise ValueError("P >= 1 and k >= 1 required")
    total = comb(P + k - 1, k)
    r = rng.randbelow(total)
    acc = 0
    for d in range(1, min(P, k) + 1):
        acc += comb(P, d) * comb(k - 1, d - 1)
        if r < acc:
            return d
    raise AssertionError("distinct-part weights failed to cover the range")


class OrbitSampler:
    """Per-(census, X) sampling tables: cumulative orbit counts for the
    length draw and suffix completion counts R_{<ell}[j] (orbits using only
    lengths below ell with total length j) for the profile draws."""

    def __init__(self, census, X):
        if X < 0 or X > census.X_max:
            raise ValueError("X beyond census")
        self.census = census
        self.X = X
        self.primes = census.primes
        self.totals = list(census.totals[: X + 1])
        # suffix[ell] = coefficient table of prod_{l < ell} (1-z^l)^(-P_l)
        suffix = [[1] + [0] * X]
        row = suffix[0]
        for ell in range(1, X + 1):
            row = kernels.inverse_factor_multiply(row, ell, census.primes[ell], X)
            suffix.append(row)
        if suffix[X] != self.totals:
            raise AssertionError("completion tables disagree with the census (internal error)")
        self.suffix = suffix
        self.cumulative = list(accumulate(self.totals))
        self.grand_total = self.cumulative[-1]

    def sample(self, rng):
        randbelow = rng.randbelow
        primes = self.primes
        suffix = self.suffix
        n = bisect_right(self.cumulative, randbelow(self.grand_total))
        rem = n
        profile = []
        # lengths above n cannot occur, and each draw lowers rem
        for ell in range(n, 0, -1):
            if rem == 0:
                break
            P = primes[ell]
            if rem < ell or P == 0:
                continue
            prev = suffix[ell - 1]
            r = randbelow(suffix[ell][rem])
            acc = prev[rem]
            if r < acc:  # k = 0: no copies at this length
                continue
            k = 1
            m = ell
            binom = P  # C(P + k - 1, k), the multiset count for k copies
            while True:
                acc += binom * prev[rem - m]
                if r < acc:
                    break
                k += 1
                m += ell
                binom = binom * (P + k - 1) // k
            profile.append((ell, k, distinct_parts(P, k, rng)))
            rem -= m
        return OrbitSample(n=n, profile=tuple(reversed(profile)))


_SAMPLER_CACHE = weakref.WeakKeyDictionary()


def sampler_for(census, X):
    per_census = _SAMPLER_CACHE.setdefault(census, {})
    if X not in per_census:
        per_census[X] = OrbitSampler(census, X)
    return per_census[X]


def sample_orbit(census, X, rng):
    """One exact-uniform draw from the orbits of total length <= X."""
    return sampler_for(census, X).sample(rng)


@dataclass(frozen=True)
class TailEstimate:
    threshold: object
    hits: int
    samples: int
    estimate: float
    interval: tuple  # Wilson 95%

    def covers(self, p):
        return self.interval[0] <= p <= self.interval[1]


def wilson_interval(hits, n):
    """95% Wilson score interval; well-behaved at 0 and n hits."""
    z = 1.959963984540054
    phat = hits / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def monte_carlo_tail(census, X, threshold, samples, seed):
    """Empirical P[W >= threshold] over per-index substreams of the seed,
    with a 95% Wilson interval."""
    if samples < 1:
        raise ValueError("samples >= 1 required")
    sampler = sampler_for(census, X)
    hits = 0
    for i in range(samples):
        s = sampler.sample(RandomStream(seed, i))
        if s.W >= threshold:
            hits += 1
    return TailEstimate(
        threshold=threshold,
        hits=hits,
        samples=samples,
        estimate=hits / samples,
        interval=wilson_interval(hits, samples),
    )


def write_samples_csv(fileobj, census, X, samples, seed):
    """CSV dump: one row per sample as (index, n, W, profile JSON)."""
    sampler = sampler_for(census, X)
    fileobj.write("index,n,W,profile\n")
    for i in range(samples):
        s = sampler.sample(RandomStream(seed, i))
        prof = json.dumps([list(entry) for entry in s.profile], separators=(",", ":"))
        fileobj.write('%d,%d,%d,"%s"\n' % (i, s.n, s.W, prof))
