"""Independent brute-force oracles for the test suite.

Everything here is deliberately self-contained: no imports from the
package under test, and no shared code with the bivariate census. The
multiset enumerator walks labeled prime orbits one at a time and counts
each orbit of the monoid exactly once, so its counts are trustworthy at
the small sizes where it is feasible.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import comb, gcd, lcm

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


def sigma_fad(spec, X):
    """sigma_1..sigma_X of a product form from its definition: c^k
    |det(A^k - 1)| r_k prod_p p^(-(v s_k + t_k p^v)) with v = v_p(k), each
    k on its own, the determinant by iterate_det. spec is read only through
    its fields c, matrix, r.values and primes (p, s.values, t.values)."""
    out = []
    for k in range(1, X + 1):
        value = Fraction(spec.c) ** k * spec.r.values[(k - 1) % len(spec.r.values)]
        if spec.matrix is not None:
            value *= abs(iterate_det([list(row) for row in spec.matrix], k))
        for fp in spec.primes:
            v = valuation(k, fp.p)
            s = int(fp.s.values[(k - 1) % len(fp.s.values)])
            t = int(fp.t.values[(k - 1) % len(fp.t.values)])
            value /= Fraction(fp.p) ** (v * s + t * fp.p**v)
        assert value.denominator == 1, f"sigma_{k} = {value} is not an integer"
        out.append(int(value))
    return out


def sigma_gm(X):
    """sigma_k = |det(A^k - 1)| |det(A^k - 1)|_5, A the Salem companion matrix."""
    A = [[0, 0, 0, -1], [1, 0, 0, 3], [0, 1, 0, -3], [0, 0, 1, 3]]
    out = []
    for k in range(1, X + 1):
        det = iterate_det(A, k)
        out.append(abs(det) // 5 ** valuation(abs(det), 5))
    return out


def oracle_dold(sigma):
    """(ok, first_failure, primes) of the Dold check on sigma_1..sigma_X by
    direct Mobius inversion, with the reasons validate_dold gives."""
    primes = []
    for ell in range(1, len(sigma) + 1):
        total = sum(trial_mobius(ell // d) * sigma[d - 1] for d in trial_divisors(ell))
        q, r = divmod(total, ell)
        if r:
            return False, (ell, f"Mobius sum {total} not divisible by {ell}"), None
        if q < 0:
            return False, (ell, f"negative orbit count {q}"), None
        primes.append(q)
    return True, None, tuple(primes)


def oracle_prime_counts(sigma):
    """P_ell from sigma_1..sigma_X by direct Mobius inversion."""
    ok, failure, primes = oracle_dold(sigma)
    assert ok, f"not realizable at ell={failure[0]}"
    return dict(enumerate(primes, 1))


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


def binomial_factor_multiply(coeffs, ell, count, X):
    """coeffs times (1 - z^ell)^(-count) to degree X, each term of the
    factor's series taken from math.comb."""
    out = []
    for n in range(X + 1):
        acc = coeffs[n]
        for m in range(1, n // ell + 1):
            acc += comb(count + m - 1, m) * coeffs[n - ell * m]
        out.append(acc)
    return out


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


def pairwise_gcd_sequence(values, meet=gcd):
    """meet(a_m, a_n) = a_gcd(m,n), gcd by default, for every pair
    m <= n <= 2L of the sequence repeating values (period L), checked pair
    by pair."""
    window = 2 * len(values)
    vals = [values[(k - 1) % len(values)] for k in range(1, window + 1)]
    for m in range(1, window + 1):
        for n in range(m, window + 1):
            if meet(vals[m - 1], vals[n - 1]) != vals[gcd(m, n) - 1]:
                return False
    return True


def reference_distinct_parts(P, k, rng):
    """d for k copies over P types, by exact thresholds on one randbelow."""
    r = rng.randbelow(comb(P + k - 1, k))
    acc = 0
    for d in range(1, min(P, k) + 1):
        acc += comb(P, d) * comb(k - 1, d - 1)
        if r < acc:
            return d
    raise AssertionError("distinct-part weights failed to cover the range")


def reference_sample(sampler, rng):
    """(n, profile) of one draw by the sampler's tables (primes, suffix,
    cumulative, grand_total), with one rng.randbelow per step: the length,
    each length ell with room and primes (its k), and each d_ell."""
    primes, suffix = sampler.primes, sampler.suffix
    r = rng.randbelow(sampler.grand_total)
    n = next(j for j, c in enumerate(sampler.cumulative) if r < c)
    rem = n
    profile = []
    for ell in range(n, 0, -1):
        if rem == 0:
            break
        P = primes[ell]
        if rem < ell or P == 0:
            continue
        prev = suffix[ell - 1]
        r = rng.randbelow(suffix[ell][rem])
        acc = prev[rem]
        if r < acc:
            continue
        k = 1
        acc += P * prev[rem - ell]
        while r >= acc:
            k += 1
            acc += comb(P + k - 1, k) * prev[rem - k * ell]
        profile.append((ell, k, reference_distinct_parts(P, k, rng)))
        rem -= k * ell
    return n, tuple(reversed(profile))


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


def ascending_joint_rows(classes, X):
    """(D, rows) of the joint census of a strongly additive statistic up to
    length X: rows[n] maps D * value to the number of orbits of length n
    with that value, D the lcm of the live weights' denominators.

    classes[ell] lists the (count, weight) classes of length ell. The
    factors (1 + u_w z^ell/(1 - z^ell))^count go in by ascending ell on
    one dict per length, lengths descending; a term uses d distinct primes
    of a class with total multiplicity k, C(count, d) C(k-1, d-1) ways, at
    degree ell*k and value d*w. Zero-weight terms are not merged.
    """
    live = [(ell, count, w) for ell in range(1, X + 1) for count, w in classes[ell] if count]
    D = lcm(*(w.denominator for _, _, w in live))
    rows = [{} for _ in range(X + 1)]
    rows[0][0] = 1
    for ell, count, w in live:
        key = w.numerator * (D // w.denominator)
        terms = [(ell * k, d * key, comb(count, d) * comb(k - 1, d - 1))
                 for k in range(1, X // ell + 1) for d in range(1, min(k, count) + 1)]
        for n in range(X - ell, -1, -1):
            for deg, step, mult in terms:
                if n + deg <= X:
                    for v, c in rows[n].items():
                        rows[n + deg][v + step] = rows[n + deg].get(v + step, 0) + c * mult
    return D, rows


def evaluated_joint_rows(classes, X):
    """ascending_joint_rows' (D, rows) by a second route: the log-derivative
    recurrence of the product, evaluated at u = 2^S.

    With u_w = u^(D w), the factor (1 + u_w z^ell/(1 - z^ell))^count has
    z d/dz log = sum_m ell count (1 - (1 - u_w)^m) z^(ell m), so F = the
    product obeys n F_n = sum_k a_k F_(n-k), a_k collecting those terms at
    ell m = k (ell count for a zero weight). F_n(u) = sum_v c_(n,v) u^v with
    every c_(n,v) <= N_n < 2^S and v <= D w_max W(n), W(n) the most
    nonzero-weight primes whose lengths fit in n (taken greedily, shortest
    first). So n F_n(2^S) is below 2^width(n), width(n) = S (D w_max W(n)
    + 1) + bits(n), the recurrence runs mod 2^width(n), and each division
    by n must be exact: that is the integrality check. Slot v of F_n(2^S)
    is c_(n,v).
    """
    live = [(ell, count, w) for ell in range(1, X + 1) for count, w in classes[ell] if count]
    D = lcm(*(w.denominator for _, _, w in live))
    keyed = [(ell, count, w.numerator * (D // w.denominator)) for ell, count, w in live]
    if any(key < 0 for _, _, key in keyed):
        raise ValueError("a negative weight has no evaluation at u = 2^S")

    def recurrence(a, width=None):
        F = [1] + [0] * X
        for n in range(1, X + 1):
            total = sum(a[k] * F[n - k] for k in range(1, n + 1))
            if width:
                total &= (1 << width(n)) - 1
            F[n], rem = divmod(total, n)
            if rem:
                raise AssertionError(f"n F_n not divisible by n at n={n}")
        return F

    # at u = 1, a_k = sigma_k and F_n = N_n, which sizes the slots
    sigma = [0] * (X + 1)
    for ell, count, _ in keyed:
        for k in range(ell, X + 1, ell):
            sigma[k] += ell * count
    S = max(recurrence(sigma)).bit_length()
    top = max((key for _, _, key in keyed), default=0)

    def width(n):
        room, most = n, 0
        for ell, count, key in keyed:  # ascending ell
            if key:
                take = min(count, room // ell)
                room -= take * ell
                most += take
        return S * (top * most + 1) + n.bit_length()

    modulus = 1 << width(X)
    a = [0] * (X + 1)
    for ell, count, key in keyed:
        for m in range(1, X // ell + 1):
            a[ell * m] += ell * count * (1 - pow(1 - (1 << (S * key)), m, modulus))
    rows = []
    for value in recurrence(a, width):
        row = {}
        v = 0
        while value:
            if value & ((1 << S) - 1):
                row[v] = value & ((1 << S) - 1)
            value >>= S
            v += 1
        rows.append(row)
    return D, rows


# ---------------------------------------------------------------------------
# tail reports by the definitions


def _real(x):
    """A Fraction as an mpf: numerator rounded, then the quotient."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def naive_laplace(atoms, theta, precision):
    """Sum of mass * mp.e ** (theta * value) over exact (value, mass)
    atoms, in order, at precision + 16 bits."""
    with mp.workprec(precision + 16):
        theta = _real(theta)
        acc = mp.mpf(0)
        for v, m in atoms:
            acc += _real(m) * mp.e ** (theta * _real(v))
        return acc


def naive_tail_rows(windows, B, epsilons, thetas, precision):
    """Tail-report rows (X, eps, threshold, log P, normalized, Poisson rate
    I(1+eps), Chebyshev bound) from the definitions, at precision + 16 bits.

    windows lists (X, atoms) with atoms the exact (value, mass) pairs of
    the statistic's PMF at X, ascending by value. Every transform is
    naive_laplace's, and the bound is the least log transform - theta *
    threshold over thetas (the first theta wins a tie).
    """
    rows = []
    with mp.workprec(precision + 16):
        scale_B = _real(B)
        for X, atoms in windows:
            real = [(_real(v), _real(m)) for v, m in atoms]
            log_mgfs = [(_real(theta), mp.log(naive_laplace(atoms, theta, precision))) for theta in thetas]
            scale = scale_B * mp.log(X)
            for eps in map(_real, epsilons):
                x = 1 + eps
                threshold = x * scale
                p = sum((m for (v, m), (y, _) in zip(atoms, real) if y >= threshold), Fraction(0))
                if p == 0:
                    log_p, normalized = mp.ninf, mp.inf
                else:
                    log_p = mp.log(_real(p))
                    normalized = -log_p / scale
                rate = x * mp.log(x) - x + 1
                cheb = min(log_m - theta * threshold for theta, log_m in log_mgfs)
                rows.append((X, eps, threshold, log_p, normalized, rate, cheb))
    return rows


# ---------------------------------------------------------------------------
# Cesaro means of the worked examples, from their closed forms


def ca_cesaro(p, t):
    """(B, tail) for the automaton sigma_k = p^k p^(-t_k p^(v_p(k))), with
    the period w of t coprime to p, from the double sum
    B = ((p-1)/w) sum_{a=1..w} sum_{j>=0} p^(-1-j-t_a p^j).

    Each residue a meets v_p(k) = j with density (p-1) p^(-1-j),
    independently of a. Terms with exponent above 2048 are dropped, as in
    the package; the exponent grows by at least 2 per j, so the dropped
    mass of a residue is under twice its first dropped term. Both are
    Fractions; t_a = 0 sums to 1/(p-1) exactly.
    """
    w = len(t)
    if gcd(w, p) != 1:
        raise ValueError("period of t must be coprime to p")
    total = Fraction(0)
    tail = Fraction(0)
    for t_a in t:
        if t_a == 0:
            total += Fraction(1, p - 1)
            continue
        j = 0
        while 1 + j + t_a * p**j <= 2048:
            total += Fraction(1, p ** (1 + j + t_a * p**j))
            j += 1
        tail += Fraction(2, p ** (1 + j + t_a * p**j))
    scale = Fraction(p - 1, w)
    return scale * total, scale * tail


def elliptic_b(p, n):
    """B = 1 - (1/d)(1 - p/(p^e (p+1))) for sigma_k = (n^k-1)^2 |n^k-1|_p
    at an odd prime p, with d the order of n mod p and e = v_p(n^d - 1);
    B = 1 when p divides n, where the p-adic factor is trivial."""
    if n % p == 0:
        return Fraction(1)
    d = next(d for d in range(1, p) if pow(n, d, p) == 1)
    e = valuation(n**d - 1, p)
    return 1 - Fraction(1, d) * (1 - Fraction(p, p**e * (p + 1)))


# ---------------------------------------------------------------------------
# the Fraction route to a polynomial's exact split: Euclid over the
# rationals, trial division by every Phi_n with n <= 2 d^2, a
# Faddeev-LeVerrier characteristic polynomial, and the root split that
# counts roots within 2^(-precision/2) of the unit circle as on it


def faddeev_charpoly(A):
    """det(xI - A), ascending: M_0 = 0, c_0 = 1, M_k = A(M_(k-1) + c_(k-1) I),
    c_k = -tr(M_k)/k."""
    d = len(A)
    coeffs = [0] * d + [1]
    M = [[0] * d for _ in range(d)]
    c = 1
    for k in range(1, d + 1):
        for i in range(d):
            M[i][i] += c
        M = mat_mul_int(A, M)
        c, r = divmod(-sum(M[i][i] for i in range(d)), k)
        assert r == 0
        coeffs[d - k] = c
    return coeffs


def poly_trim(f):
    f = list(f)
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def poly_divmod(f, g):
    """Quotient and remainder of f by a nonzero g over the rationals."""
    r = [Fraction(c) for c in poly_trim(f)]
    g = [Fraction(c) for c in poly_trim(g)]
    q = [Fraction(0)] * max(1, len(r) - len(g) + 1)
    while len(r) >= len(g) and any(r):
        coef = r[-1] / g[-1]
        q[len(r) - len(g)] = coef
        for i, b in enumerate(g):
            r[len(r) - len(g) + i] -= coef * b
        r = poly_trim(r[:-1]) if len(r) > 1 else [Fraction(0)]
    return poly_trim(q), poly_trim(r)


def poly_gcd(f, g):
    """Monic gcd over the rationals by Euclid's algorithm."""
    a, b = poly_trim(f), poly_trim(g)
    while any(b):
        a, b = b, poly_divmod(a, b)[1]
    return [Fraction(c) / a[-1] for c in a]


def poly_int(f):
    assert all(Fraction(c).denominator == 1 for c in f)
    return [int(c) for c in f]


def squarefree_factors(f):
    """Musser's square-free decomposition over the rationals: (s, i) pairs."""
    out = []
    a = poly_gcd(f, [i * c for i, c in enumerate(f)][1:] or [0])
    b = poly_divmod(f, a)[0]
    i = 1
    while len(b) > 1:
        y = poly_gcd(a, b)
        if len(b) > len(y):
            out.append((poly_int(poly_divmod(b, y)[0]), i))
        a = poly_divmod(a, y)[0]
        b = y
        i += 1
    return out


@cache
def cyclotomic(n):
    """Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d."""
    f = [-1] + [0] * (n - 1) + [1]
    for d in trial_divisors(n)[:-1]:
        f, r = poly_divmod(f, cyclotomic(d))
        assert not any(r)
    return poly_int(f)


def cyclotomic_divisors(f):
    """Every n <= 2 (deg f)^2 with phi(n) <= deg f and Phi_n | f."""
    d = len(f) - 1
    hits = []
    for n in range(1, 2 * d * d + 2):
        phi = sum(trial_mobius(n // e) * e for e in trial_divisors(n))
        if phi <= d and not any(poly_divmod(f, cyclotomic(n))[1]):
            hits.append(n)
    return hits


def fraction_split(f):
    """(multiplicity, cyclotomic n, g, s / g) for each square-free factor s
    of f with its zero roots dropped, where g = gcd(s', reversal s') for s'
    = s with its cyclotomic factors divided out."""
    f = poly_trim(f)
    while len(f) > 1 and f[0] == 0:
        f = f[1:]
    out = []
    for s, i in squarefree_factors(f):
        cyclo = cyclotomic_divisors(s)
        for n in cyclo:
            s = poly_int(poly_divmod(s, cyclotomic(n))[0])
        g = poly_int(poly_gcd(s, s[::-1]))
        out.append((i, tuple(cyclo), tuple(g), tuple(poly_int(poly_divmod(s, g)[0]))))
    return out


def threshold_root_split(f, precision, poly_roots):
    """(outside, exact, cyclotomic, unit_roots) of a monic integer f, as
    the package sorted them before its disks were certified: every part of
    fraction_split is rooted once by poly_roots at max(precision + 48,
    coefficient bits + 16) bits, and a root within 2^(-precision/2) of the
    unit circle counts as on it."""
    eps = mp.mpf(2) ** (-(precision // 2))
    outside, exact, cyclo, unit = mp.mpf(1), 1, [], []
    for i, ns, g, rest in fraction_split(f):
        cyclo += [n for n in ns for _ in range(i)]
        for part, reciprocal in ((list(g), True), (list(rest), False)):
            if len(part) == 1:
                continue
            bits = max(precision + 48, max(abs(c) for c in part).bit_length() + 16)
            with mp.workprec(bits):
                roots = poly_roots(part, bits)
                for r in roots:
                    m = abs(r)
                    if m > 1 + eps:
                        outside *= m**i
                    elif reciprocal and abs(m - 1) < eps and mp.im(r) > eps:
                        unit += [r] * i
                candidates = {int(mp.nint(mp.re(r))) for r in roots}
            if exact is None:
                continue
            for r in candidates:
                q, rem = poly_divmod(part, [-r, 1])
                if not any(rem):
                    part = poly_int(q)
                    exact *= abs(r) ** i
            if len(part) > 1:
                exact = None
    return outside, exact, tuple(cyclo), tuple(unit)


def spiral_start(f):
    """mpmath's spiral of starting points, scaled to radius |f(0)|^(1/deg f)
    for a trimmed f, at the working precision."""
    n = len(f) - 1
    radius = mp.mpf(abs(f[0])) ** (mp.mpf(1) / n) or 1
    turn = mp.mpc(0.4, 0.9) / abs(mp.mpc(0.4, 0.9))
    return [radius * turn**k for k in range(n)]


def spiral_poly_roots(f, precision):
    """The roots of f as poly_roots found them before its double-precision
    seed: mpmath's Durand-Kerner from its spiral scaled to radius
    |f(0)|^(1/deg f), then six Newton steps on the exact coefficients."""
    f = poly_trim(f)
    if len(f) < 2:
        return []

    def horner(g, x):
        acc = 0
        for c in reversed(g):
            acc = acc * x + c
        return acc

    with mp.workprec(precision + 48):
        desc = [mp.mpf(c) for c in reversed(f)]
        roots = mp.polyroots(desc, maxsteps=200, extraprec=precision, roots_init=spiral_start(f))
        df = [i * c for i, c in enumerate(f)][1:] or [0]
        polished = []
        for r in roots:
            x = mp.mpc(r)
            for _ in range(6):
                dfx = horner(df, x)
                if dfx == 0:
                    break
                x = x - horner(f, x) / dfx
            polished.append(x)
    return polished


# ---------------------------------------------------------------------------
# integer matrices the suite roots

# GM's Salem polynomial x^4 - 3x^3 + 3x^2 - 3x + 1 as a companion matrix
GM_COMPANION = ((0, 0, 0, -1), (1, 0, 0, 3), (0, 1, 0, -3), (0, 0, 1, 3))


def gm_blocks(n):
    """n copies of GM's companion matrix down the diagonal."""
    return [[GM_COMPANION[i % 4][j % 4] if i // 4 == j // 4 else 0 for j in range(4 * n)] for i in range(4 * n)]


def seeded_matrix(d):
    """A d x d matrix with entries -3..3 from random.Random(d), plus 7 on
    the diagonal."""
    rng = random.Random(d)
    return [[rng.randint(-3, 3) + (7 if i == j else 0) for j in range(d)] for i in range(d)]
