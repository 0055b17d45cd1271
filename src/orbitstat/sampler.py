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

The RNG is numpy's Philox, imported when the first stream is built:
`import orbitstat`, importing this module, and everything else the
package does (censuses, constants, distributions, rate functions, the CLI
commands that never draw) do not load numpy. Each seed has one
Philox, built once; a stream keeps only its seed's key and its own
counter, and positions that shared generator at the counter, under a
lock, for each 4 KB chunk it fetches. Philox output depends only on
(key, counter), so sharing the generator changes no byte.

The descent inlines RandomStream.randbelow: it reads exactly the bytes,
makes exactly the accept decisions and leaves the stream in exactly the
state that one randbelow per cell, and one per distinct-part draw, would.
Beside the completion counts, the sampler keeps each cell's byte width
bit_length // 8 + 1 in one compact unsigned-int array per length, the
width of each P_ell, and the span 2^(8 width) of each width in use, so a
step computes neither. The descent holds the stream's byte window
(buffer, position, block end, next block) in local variables. A read that
crosses the block end moves to the next 256-byte block inline, as
RandomStream._refill would; only a spent buffer or a cell wider than 256
bytes calls _refill. One copy of that read serves every cell and, for one
copy at a length (k_ell = 1, so d_ell = 1), the randbelow(P_ell) that
distinct_parts would make. The window is written back before the calls
that draw from the stream (a refill, distinct_parts for k_ell >= 2) and
read again after them, and once more when the descent ends.
"""

import threading
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from math import comb

from orbitstat import kernels
from orbitstat.numtheory import Record

# raw 64-bit Philox words fetched at a time: 4 KB, about one long draw
# (a 64- or 128-word first fetch: E(3,2) draws 0-1.4 us faster, FF(2) 3-5 us slower)
_CHUNK_WORDS = 512
_WORD = (1 << 64) - 1
# guards the shared per-seed generators from position to fetch
_LOCK = threading.Lock()


@lru_cache(maxsize=None)
def _philox():
    """numpy.random.Philox, imported on first use and kept."""
    from numpy.random import Philox

    return Philox


@lru_cache(maxsize=64)
def _seeded(seed):
    """(key, generator) of a seed: its Philox key as two ints, and the one
    Philox that every stream of the seed is served from."""
    bitgen = _philox()(seed=seed)
    return tuple(int(k) for k in bitgen.state["state"]["key"]), bitgen


class RandomStream:
    """Counter-based substream: (seed, index) fully determines the draws.

    The Philox key comes from the seed and stream index i starts the counter
    at i * 2^128 (mod 2^256), the stream Philox(seed).jumped(i) gives, so
    per-sample substreams are independent and reproducible across any
    thread layout. A stream holds only that key and its counter: the seed's
    one Philox is set to (counter, key) under a lock for each chunk of
    whole 4-word blocks, and the counter advances past them. Bytes are
    consumed in blocks of max(nbytes, 256), each starting at the next unused
    32-bit word, exactly as Generator.bytes would serve them. randbelow(n)
    is exact-uniform via byte-block rejection sampling.
    """

    def __init__(self, seed, index=0):
        if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
            raise ValueError(f"stream seed must be an int >= 0, got {seed!r}")
        if not isinstance(index, int) or isinstance(index, bool):
            raise ValueError(f"stream index must be an int, got {index!r}")
        self._key, self._bitgen = _seeded(seed)
        self._counter = (index << 128) % (1 << 256)
        self._buf = b""
        self._pos = 0  # next unread byte of the current block
        self._end = 0  # end of the current block
        self._next = 0  # start of the next block

    def _refill(self, nbytes):
        size = max(nbytes, 256)
        start = self._next
        if start + size > len(self._buf):
            # whole Philox blocks, so no partial block waits in numpy's buffer
            blocks = (max(_CHUNK_WORDS, size // 8 + 1) + 3) // 4
            c = self._counter
            counter = (c & _WORD, c >> 64 & _WORD, c >> 128 & _WORD, c >> 192)
            state = {"bit_generator": "Philox", "state": {"counter": counter, "key": self._key},
                     "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            with _LOCK:
                self._bitgen.state = state
                raw = self._bitgen.random_raw(4 * blocks)
            self._counter = (c + blocks) % (1 << 256)
            self._buf = self._buf[start:] + raw.tobytes()
            start = 0
        self._pos = start
        self._end = start + size
        self._next = start + (size + 3) // 4 * 4

    def randbelow(self, n):
        if n <= 1:
            if n == 1:
                return 0
            raise ValueError("randbelow needs a positive bound")
        # one spare byte makes span > 2n, so span >= 2n + span % n and the
        # rejection rate span % n / span is below 1/3 (at worst 21844/65536,
        # n = 21846, below 2^16)
        nbytes = n.bit_length() // 8 + 1
        span = 1 << (8 * nbytes)
        # span % n < n, so r < span - n already lies below the rejection
        # limit span - span % n, which is only computed for the rest
        sure = span - n
        while True:
            pos = self._pos
            end = pos + nbytes
            if end > self._end:
                self._refill(nbytes)
                pos = self._pos
                end = pos + nbytes
            self._pos = end
            r = int.from_bytes(self._buf[pos:end], "big")
            if r < sure or r < span - span % n:
                return r % n


class OrbitSample(Record):
    """A sampled orbit as (total length, per-length profile).

    profile holds (ell, k_ell, d_ell) triples for lengths actually used:
    k_ell copies drawn at length ell, d_ell of them distinct.
    """
    __slots__ = ("n", "profile", "W")

    def __init__(self, n, profile):
        # one pass: the sum error is raised before any entry's; an entry is
        # bad unless its length exceeds the last (the first exceeds 0) and
        # 1 <= d <= k
        length = W = last = 0
        bad = None
        for ell, k, d in profile:
            length += ell * k
            W += d
            if not (last < ell and 1 <= d <= k) and bad is None:
                bad = ell
            last = ell
        if length != n:
            raise ValueError("profile lengths do not sum to n")
        if bad is not None:
            raise ValueError(f"invalid profile entry at ell={bad}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "W", W)  # distinct primes, sum of d_ell


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
    length draw, suffix completion counts R_{<ell}[j] (orbits using only
    lengths below ell with total length j) for the profile draws, and the
    byte width of each completion count for the inlined randbelow."""

    def __init__(self, census, X):
        if X < 0 or X > census.X_max:
            raise ValueError("X beyond census")
        self.X = X
        self.primes = census.primes
        totals = list(census.totals[: X + 1])
        # suffix[ell] = coefficient table of prod_{l <= ell} (1-z^l)^(-P_l)
        suffix = [[1] + [0] * X]
        row = suffix[0]
        for ell in range(1, X + 1):
            row = kernels.inverse_factor_multiply(row, ell, census.primes[ell], X)
            suffix.append(row)
        if suffix[X] != totals:
            raise AssertionError("completion tables disagree with the census (internal error)")
        self.suffix = suffix
        # loaded with the first sampler, so commands that never draw do not map it
        from array import array

        # randbelow's byte count per cell; "I" holds widths up to 2^32 - 1
        # bytes and raises OverflowError past them
        self.widths = [array("I", [v.bit_length() // 8 + 1 for v in row]) for row in suffix]
        # steps[ell] = (P_ell, suffix[ell], suffix[ell - 1], widths[ell], the
        # byte width of P_ell), one tuple per descent step; steps[0] is never read
        pwidths = [P.bit_length() // 8 + 1 for P in self.primes[: X + 1]]
        self.steps = list(zip(self.primes, suffix, [None] + suffix, self.widths, pwidths))
        self.spans = {w: 1 << (8 * w) for w in set().union(*self.widths, pwidths)}
        self.cumulative = list(accumulate(totals))
        self.grand_total = self.cumulative[-1]

    def sample(self, rng):
        steps, spans = self.steps, self.spans
        from_bytes = int.from_bytes  # a local: int.from_bytes is a lookup per call
        n = bisect_right(self.cumulative, rng.randbelow(self.grand_total))
        buf, pos, end, nxt = rng._buf, rng._pos, rng._end, rng._next
        rem = ell = n  # ell <= rem throughout: lengths above rem cannot occur
        one = False  # the next read is randbelow(P) for one copy at ell
        profile = []
        while rem:
            if one:
                bound, w = P, pw
            else:
                P, row, prev, wrow, pw = steps[ell]
                if not P:
                    ell -= 1
                    continue
                bound, w = row[rem], wrow[rem]
            # r = rng.randbelow(bound), inlined: randbelow(1) reads no byte
            r = 0
            if bound > 1:
                span = spans[w]
                while True:
                    stop = pos + w
                    if stop > end:
                        if w > 256 or nxt + 256 > len(buf):
                            rng._next = nxt
                            rng._refill(w)
                            buf, pos, end, nxt = rng._buf, rng._pos, rng._end, rng._next
                        else:  # the next 256-byte block, as _refill would serve it
                            pos = nxt
                            end = nxt = nxt + 256
                        stop = pos + w
                    r = from_bytes(buf[pos:stop], "big")
                    pos = stop
                    if r < span - bound or r < span - span % bound:
                        r %= bound
                        break
            if one:  # one copy is one distinct prime; the read only keeps the bytes
                one = False
                profile.append((ell, 1, 1))
                rem -= ell
                ell = rem if rem < ell else ell - 1
                continue
            acc = prev[rem]
            if r < acc:  # k = 0: no copies at this length
                ell -= 1
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
            if k == 1:  # d = 1, after the read of randbelow(P) the next pass makes
                one = True
                continue
            rng._pos, rng._end, rng._next = pos, end, nxt
            profile.append((ell, k, distinct_parts(P, k, rng)))
            buf, pos, end, nxt = rng._buf, rng._pos, rng._end, rng._next
            rem -= m
            ell = rem if rem < ell else ell - 1  # min(ell - 1, rem)
        rng._pos, rng._end, rng._next = pos, end, nxt
        return OrbitSample(n=n, profile=tuple(reversed(profile)))


def sampler_for(census, X):
    """The census's OrbitSampler for X, built on first use and kept on the
    census beside its joint censuses."""
    if X not in census.samplers:
        census.samplers[X] = OrbitSampler(census, X)
    return census.samplers[X]


def sample_orbit(census, X, rng):
    """One exact-uniform draw from the orbits of total length <= X."""
    return sampler_for(census, X).sample(rng)


def write_samples_csv(fileobj, census, X, samples, seed):
    """CSV dump: one row per sample as (index, n, W, profile JSON)."""
    sampler = sampler_for(census, X)
    fileobj.write("index,n,W,profile\n")
    for i in range(samples):
        s = sampler.sample(RandomStream(seed, i))
        prof = "[" + ",".join("[%d,%d,%d]" % entry for entry in s.profile) + "]"
        fileobj.write('%d,%d,%d,"%s"\n' % (i, s.n, s.W, prof))
