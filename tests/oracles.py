"""Independent brute-force oracles for the test suite.

Everything here is deliberately self-contained: no imports from the
package under test, and no shared code with the bivariate census. The
multiset enumerator walks labeled prime orbits one at a time and counts
each orbit of the monoid exactly once, so its counts are trustworthy at
the small sizes where it is feasible.
"""

from fractions import Fraction
from itertools import permutations

import mpmath as mp
from numpy.random import Generator, Philox


# ---------------------------------------------------------------------------
# elementary arithmetic (own copies, trial division throughout)


def trial_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def trial_mobius(n):
    result = 1
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


def valuation(m, p):
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# fixed-point tables for the worked examples, from their defining formulas


def sigma_ff(q, X):
    return [q**k for k in range(1, X + 1)]


def sigma_e(p, n, X):
    out = []
    for k in range(1, X + 1):
        m = n**k - 1
        out.append(m * m // p ** valuation(m, p))
    return out


def sigma_ga(X):
    return [2 ** (k - 2 ** valuation(k, 2)) for k in range(1, X + 1)]


def sigma_periodic(values, X):
    return [values[(k - 1) % len(values)] for k in range(1, X + 1)]


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def perm_det(A):
    """Determinant by the Leibniz permutation sum (exact, tiny matrices)."""
    d = len(A)
    total = 0
    for perm in permutations(range(d)):
        term = perm_sign(perm)
        for i in range(d):
            term *= A[i][perm[i]]
        total += term
    return total


def mat_mul_int(A, B):
    d = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def iterate_det(A, k):
    """det(A^k - 1) via repeated multiplication and the Leibniz sum."""
    d = len(A)
    M = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(k):
        M = mat_mul_int(M, A)
    return perm_det([[M[i][j] - (1 if i == j else 0) for j in range(d)] for i in range(d)])


def sigma_gm(X):
    """sigma_k = |det(A^k - 1)| |det(A^k - 1)|_5, A the Salem companion matrix."""
    A = [[0, 0, 0, -1], [1, 0, 0, 3], [0, 1, 0, -3], [0, 0, 1, 3]]
    out = []
    for k in range(1, X + 1):
        det = iterate_det(A, k)
        out.append(abs(det) // 5 ** valuation(abs(det), 5))
    return out


def oracle_prime_counts(sigma):
    """P_ell from sigma_1..sigma_X by direct Mobius inversion."""
    X = len(sigma)
    P = {}
    for ell in range(1, X + 1):
        total = sum(trial_mobius(ell // d) * sigma[d - 1] for d in trial_divisors(ell))
        q, r = divmod(total, ell)
        assert r == 0 and q >= 0, f"not realizable at ell={ell}"
        P[ell] = q
    return P


def necklace_counts(q, X):
    """Aperiodic necklace numbers (1/ell) sum mu(d) q^(ell/d): the prime
    orbit counts of the full shift on q symbols."""
    return {
        ell: sum(trial_mobius(d) * q ** (ell // d) for d in trial_divisors(ell)) // ell
        for ell in range(1, X + 1)
    }


def oracle_mertens(P, lam, X):
    """M(X) = sum P_ell lam^(-ell) as an exact Fraction (lam rational)."""
    lam = Fraction(lam)
    return sum(Fraction(P[ell]) / lam**ell for ell in range(1, X + 1))


def oracle_mertens_mpf(P, lam, X, precision):
    """M(X) at precision + 16 bits, summed afresh from ell = 1: a Fraction
    lam sums exactly and rounds the numerator, then the quotient; an mpf
    lam adds P_ell lam^(-ell) term by term."""
    with mp.workprec(precision + 16):
        if isinstance(lam, Fraction):
            exact = oracle_mertens(P, lam, X)
            return mp.mpf(exact.numerator) / exact.denominator
        acc = mp.mpf(0)
        for ell in range(1, X + 1):
            if P[ell]:
                acc += P[ell] * lam ** (-ell)
        return +acc


def random_sigma_table(rng, X):
    """A realizable sigma table: build it from random prime counts."""
    P = [0] + [rng.randrange(0, 12) for _ in range(X)]
    sigma = [0] * (X + 1)
    for ell in range(1, X + 1):
        for k in range(ell, X + 1, ell):
            sigma[k] += ell * P[ell]
    return sigma, P


def oracle_stream(seed, index, bounds):
    """randbelow(n) for each n in bounds on substream (seed, index), built
    the reference way: Generator(Philox(seed).jumped(index)) refilled with
    Generator.bytes(max(nbytes, 256)), leftover bytes dropped."""
    bitgen = Philox(seed=int(seed))
    if index:
        bitgen = bitgen.jumped(int(index))
    gen = Generator(bitgen)
    buf, pos, out = b"", 0, []
    for n in bounds:
        if n == 1:
            out.append(0)
            continue
        nbytes = n.bit_length() // 8 + 1
        span = 1 << (8 * nbytes)
        while True:
            if pos + nbytes > len(buf):
                buf, pos = gen.bytes(max(nbytes, 256)), 0
            r = int.from_bytes(buf[pos : pos + nbytes], "big")
            pos += nbytes
            if r < span - span % n:
                out.append(r % n)
                break
    return out


def partition_orbit_count(n):
    """N_n for sigma = (1,3,1,3,...): closed form floor(n/2) + 1."""
    return n // 2 + 1


# ---------------------------------------------------------------------------
# the exhaustive multiset enumerator


def brute_enumerate(P, X):
    """Enumerate every general orbit of total length <= X, one at a time.

    P maps each length to its number of (labeled) prime orbits. Returns a
    dict keyed by (n, W, profile) with the number of orbits having that
    total length, distinct-prime count, and per-length profile, where
    profile is a sorted tuple of (ell, copies, distinct) triples.

    The walk assigns a multiplicity to each labeled prime in turn
    (ascending length, so a budget below the current length closes the
    remaining choices at zero), which touches every multiset exactly once.
    """
    labeled = []
    for ell in sorted(P):
        labeled.extend([ell] * P[ell])
    results = {}

    def emit(budget, per_len):
        n = X - budget
        profile = tuple(sorted((l, kd[0], kd[1]) for l, kd in per_len.items()))
        w = sum(d for _, _, d in profile)
        key = (n, w, profile)
        results[key] = results.get(key, 0) + 1

    def walk(i, budget, per_len):
        if i == len(labeled) or budget < labeled[i]:
            emit(budget, per_len)
            return
        ell = labeled[i]
        m = 0
        while m * ell <= budget:
            if m:
                entry = per_len.setdefault(ell, [0, 0])
                entry[0] += m
                entry[1] += 1
            walk(i + 1, budget - m * ell, per_len)
            if m:
                entry = per_len[ell]
                entry[0] -= m
                entry[1] -= 1
                if entry == [0, 0]:
                    del per_len[ell]
            m += 1

    walk(0, X, {})
    return results


def brute_orbit_total(results, X):
    """N(X): orbits (empty one included) of total length <= X."""
    return sum(c for (n, _, _), c in results.items() if n <= X)


def brute_counts_by_length(results):
    """N_n per degree."""
    by_n = {}
    for (n, _, _), c in results.items():
        by_n[n] = by_n.get(n, 0) + c
    return by_n


def brute_w_pmf(results, X):
    """Exact PMF of the distinct-prime count over orbits of length <= X."""
    total = brute_orbit_total(results, X)
    masses = {}
    for (n, w, _), c in results.items():
        if n <= X:
            masses[w] = masses.get(w, 0) + c
    return {w: Fraction(c, total) for w, c in sorted(masses.items())}


def brute_expected_w(results, X):
    pmf = brute_w_pmf(results, X)
    return sum((Fraction(w) * m for w, m in pmf.items()), Fraction(0))


def brute_class_probabilities(results, X):
    """Probability of each per-length profile class among orbits of total
    length <= X; the classes are exactly what the sampler reports."""
    total = brute_orbit_total(results, X)
    classes = {}
    for (n, _, profile), c in results.items():
        if n <= X:
            classes[profile] = classes.get(profile, 0) + c
    return {profile: Fraction(c, total) for profile, c in classes.items()}


def brute_weighted_census(weights, X):
    """Counts of orbits by (total length n <= X, statistic value), where an
    orbit's statistic is the sum of the weights of the distinct labeled
    primes it uses.

    weights maps each length to the list of its labeled primes' weights,
    one entry per prime. Each prime in turn (ascending length) takes a
    multiplicity, so every multiset is reached exactly once.
    """
    labeled = [(ell, w) for ell in sorted(weights) for w in weights[ell]]
    results = {}

    def walk(i, n, value):
        if i == len(labeled) or n + labeled[i][0] > X:
            results[(n, value)] = results.get((n, value), 0) + 1
            return
        ell, w = labeled[i]
        walk(i + 1, n, value)
        m = 1
        while n + m * ell <= X:
            walk(i + 1, n + m * ell, value + w)
            m += 1

    walk(0, 0, Fraction(0))
    return results
