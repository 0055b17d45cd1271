"""Exact polynomial and integer-matrix helpers.

Polynomials are integer coefficient lists in ascending degree order
(coeffs[i] is the z^i coefficient). Matrices are lists of rows of ints.
Every division is by a monic polynomial, and every gcd has a monic
argument and is monic, so all of it stays in the integers (Gauss's lemma).
Only the root finding at the bottom is numeric: mpmath at a caller-chosen
precision, with the side of the unit circle of every root certified.
"""

import math
import threading
from fractions import Fraction
from functools import cache
from itertools import count
from operator import mul

from orbitstat.numtheory import Record, is_prime


# ---------------------------------------------------------------------------
# polynomial arithmetic over the integers


def poly_trim(f):
    i = len(f) - 1
    while i > 0 and f[i] == 0:
        i -= 1
    return f[: i + 1]


def poly_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_deriv(f):
    return [i * c for i, c in enumerate(f)][1:] or [0]


def monic_divmod(f, g):
    """Quotient and remainder of f by a monic g, both trimmed lists."""
    dg = len(g) - 1
    r = list(f)
    q = [0] * max(1, len(r) - dg)
    for k in range(len(r) - 1 - dg, -1, -1):
        c = q[k] = r[k + dg]
        if c:
            r[k : k + dg] = [a - c * b for a, b in zip(r[k : k + dg], g)]
    return q, poly_trim(r[:dg] or [0])


def _gcd_mod(f, g, p):
    """The monic gcd of a monic f and any g over the integers mod p."""
    a, b = [c % p for c in f], [c % p for c in g]
    while any(b):
        while not b[-1]:
            b.pop()
        inverse, db = pow(b[-1], -1, p), len(b) - 1
        for k in range(len(a) - 1 - db, -1, -1):
            c = a[k + db] * inverse % p
            if c:
                a[k : k + db] = [(x - c * y) % p for x, y in zip(a[k : k + db], b)]
        a, b = b, a[:db]
    inverse = pow(a[-1], -1, p)
    return [c * inverse % p for c in a]


# the primes below 2^61, descending, as far as any monic_gcd has read them;
# the lock lets one thread at a time append, so none is found twice
_PRIMES = [2**61 - 1]
_PRIMES_LOCK = threading.Lock()


def _brown_primes():
    """The primes below 2^61 in descending order, each found by is_prime
    once per process and reused by every later gcd."""
    for i in count():
        if i == len(_PRIMES):
            with _PRIMES_LOCK:
                if i == len(_PRIMES):
                    p = _PRIMES[-1] - 2
                    while not is_prime(p):
                        p -= 2
                    _PRIMES.append(p)
        yield _PRIMES[i]


def monic_gcd(f, g):
    """The monic gcd h of a monic f and any g, by Brown's modular algorithm
    (J. ACM 18, 1971). h mod p divides the gcd mod p, so the primes below
    2^61 whose gcd has the least degree seen give h mod p (the finitely many
    others are skipped); their CRT lift is h once one more prime leaves it
    unchanged and it divides f and g. Degree 0 mod p proves h = 1. The
    primes come from _brown_primes, so no gcd tests a number twice.
    """
    residues = lift = None
    for p in _brown_primes():
        h = _gcd_mod(f, g, p)
        if len(h) == 1:
            return [1]
        if residues is None or len(h) < len(residues):
            residues, modulus = h, p
        elif len(h) > len(residues):
            continue
        else:
            step = pow(modulus, -1, p)
            residues = [r + modulus * ((a - r) * step % p) for r, a in zip(residues, h)]
            modulus *= p
        previous, lift = lift, [r - modulus if 2 * r > modulus else r for r in residues]
        if lift == previous and monic_divmod(f, lift)[1] == monic_divmod(g, lift)[1] == [0]:
            return lift


def squarefree_factors(f):
    """Square-free decomposition of a monic polynomial (Musser): pairs
    (s, i) with f = prod s^i, each s monic, square-free, of degree >= 1 and
    coprime to the others."""
    out = []
    a = monic_gcd(f, poly_deriv(f))  # prod s^(i-1)
    b = monic_divmod(f, a)[0]  # prod s
    i = 1
    while len(b) > 1:
        y = monic_gcd(b, a)  # prod of the s with multiplicity > i
        if len(b) > len(y):
            out.append((monic_divmod(b, y)[0], i))
        a = monic_divmod(a, y)[0]
        b = y
        i += 1
    return out


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the exact split


def _stretch(f, k):
    """f(x^k)."""
    out = [0] * ((len(f) - 1) * k + 1)
    out[::k] = f
    return out


@cache
def cyclotomic(n):
    """Phi_n as a tuple of ints: Phi_1 = x - 1, Phi_(mp) = Phi_m(x^p) / Phi_m
    for each prime p | n not dividing m up to the radical r of n, and
    Phi_n = Phi_r(x^(n/r))."""
    f, radical, rest, p = [-1, 1], 1, n, 2
    while rest > 1:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            f = monic_divmod(_stretch(f, p), f)[0]
            radical *= p
        p += 1
    return tuple(_stretch(f, n // radical))


def cyclotomic_divisors(g):
    """The n with Phi_n | g, ascending, for a monic square-free g, and g
    with those Phi_n divided out. phi(n) >= sqrt(n/2) bounds n by
    2 (deg g)^2, and a totient sieve picks the n with phi(n) at most the
    degree of what is left of g."""
    bound = 2 * (len(g) - 1) ** 2
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:  # p is prime
            phi[p::p] = [v - v // p for v in phi[p::p]]
    hits = []
    for n in range(1, bound + 1):
        if phi[n] < len(g):
            q, r = monic_divmod(g, cyclotomic(n))
            if r == [0]:
                hits.append(n)
                g = q
    return hits, g


class SquarefreePart(Record):
    """A square-free factor s of a polynomial, of the given multiplicity:
    cyclotomic, each n with Phi_n | s; reciprocal, gcd(s, reversal s) with
    those Phi_n divided out; rest, s / gcd(s, reversal s), with no root on
    the unit circle (a root r there has 1/r = conj(r) as a root too)."""
    __slots__ = ("multiplicity", "cyclotomic", "reciprocal", "rest")

    def __init__(self, multiplicity, cyclotomic, reciprocal, rest):
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "cyclotomic", cyclotomic)
        object.__setattr__(self, "reciprocal", reciprocal)
        object.__setattr__(self, "rest", rest)


def exact_split(f):
    """The exact, precision-free split of a monic integer polynomial that
    every root question reads: one SquarefreePart per square-free factor,
    zero roots dropped."""
    f = f[next(i for i, c in enumerate(f) if c) :]
    parts = []
    for s, i in squarefree_factors(f):
        g = monic_gcd(s, s[::-1])
        cyclo, reciprocal = cyclotomic_divisors(g)
        parts.append(SquarefreePart(i, tuple(cyclo), tuple(reciprocal), tuple(monic_divmod(s, g)[0])))
    return tuple(parts)


# ---------------------------------------------------------------------------
# integer matrices


def charpoly(A):
    """Monic det(xI - A), ascending int coefficients (1 for the empty matrix),
    by Berkowitz's division-free algorithm: with the trailing submatrix from
    row k split as [[a, R], [C, B]], its descending coefficients are the
    lower-triangular Toeplitz matrix with first column 1, -a, -R C, -R B C,
    -R B^2 C, ... times B's, so O(d^3) dot products in all."""
    d = len(A)
    if any(len(row) != d for row in A):
        raise ValueError("matrix must be square")
    coeffs = [1]  # descending, of the empty trailing block
    for k in range(d - 1, -1, -1):
        block = [row[k + 1 :] for row in A[k + 1 :]]
        R = A[k][k + 1 :]
        column = [row[k] for row in A[k + 1 :]]
        toeplitz = [1, -A[k][k]]
        for i in range(d - 1 - k):
            if i:
                column = [sum(map(mul, row, column)) for row in block]
            toeplitz.append(-sum(map(mul, R, column)))
        coeffs = [sum(map(mul, toeplitz[i::-1], coeffs)) for i in range(len(toeplitz))]
    return coeffs[::-1]


def companion_matrix(f):
    """Companion matrix of a monic integer polynomial (ascending coeffs)."""
    if f[-1] != 1:
        raise ValueError("monic polynomial required")
    d = len(f) - 1
    A = [[0] * d for _ in range(d)]
    for i in range(1, d):
        A[i][i - 1] = 1
    for i in range(d):
        A[i][d - 1] = -f[i]
    return A


def power_trace_table(f, n):
    """Power sums [p_m]_{m=0..n} of the roots of a monic integer polynomial f
    (ascending coefficients), counted with multiplicity; for f = charpoly(A),
    p_m = tr(A^m).

    Newton's identities give p_1..p_d; beyond the degree d,
    p_m = -(a_(d-1) p_(m-1) + ... + a_0 p_(m-d)), O(d) integer operations a step.
    """
    d = len(f) - 1
    a = f[:d]  # f = x^d + a_(d-1) x^(d-1) + ... + a_0
    p = [0] * (n + 1)
    p[0] = d
    for m in range(1, n + 1):
        # p_m + a_(d-1) p_(m-1) + ... + a_(d-m+1) p_1 + m a_(d-m) = 0 for m <= d
        s = m * a[d - m] if m <= d else 0
        for i in range(1, min(m - 1, d) + 1):
            s += a[d - i] * p[m - i]
        p[m] = -s
    return p


def det_iterate_minus_identity(f, X):
    """[det(A^k - I)]_{k=1..X} (index 0 unused) from f = charpoly(A) alone.

    The roots of f to the k-th power, mu = lambda^k, have power sums
    p_m(mu) = p_(mk), so one power_trace_table to d*X gives them all.
    Newton's identities j b_j = -(b_(j-1) p_k + ... + b_0 p_(jk)) turn them
    into the coefficients b_j = (-1)^j e_j(mu) of the characteristic
    polynomial of A^k, each division by j exact, and
    det(A^k - I) = prod (mu - 1) = (-1)^d (b_0 + ... + b_d).
    """
    d = len(f) - 1
    p = power_trace_table(f, d * X)
    out = [0] * (X + 1)
    for k in range(1, X + 1):
        pk = p[k : d * k + 1 : k]  # p_k(mu), ..., p_d(mu)
        b = [1]
        for j in range(1, d + 1):
            q, r = divmod(-sum(map(mul, reversed(b), pk)), j)
            assert r == 0, "Newton's identity not divisible"
            b.append(q)
        out[k] = -sum(b) if d % 2 else sum(b)
    return out


# ---------------------------------------------------------------------------
# numeric roots (mpmath) with Newton refinement


def to_mpf(x):
    """x as an mpf at the working precision.

    A Fraction's numerator is rounded first and the quotient rounded
    again; every real column in the package depends on these two
    roundings, so all exact-to-real conversions go through here.
    """
    import mpmath as mp

    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _float_seed(f):
    """The roots of f by Durand-Kerner in complex doubles, from the spiral
    of radius |f(0)|^(1/deg f), or None if the pass overflows, divides by
    zero or has not settled within 200 steps.

    A root z with |z| > 1 is corrected through the reversal g of f at 1/z,
    f(z) / prod (z - r_j) = z g(1/z) prod z / (z - r_j), so no power of z
    overflows. A step settles when each root's correction is below
    2^-48 |z| or its value is within Horner's rounding bound, 4 deg(f) 2^-53
    times Horner's rule on the moduli (Higham, Accuracy and Stability of
    Numerical Algorithms, 5.1; doubled for complex arithmetic), where a
    double cannot tell it from zero. abs() of a huge finite complex raises
    OverflowError, and z - r_j can be 0."""
    n = len(f) - 1
    try:
        up = [(c, abs(c)) for c in map(float, f)]
    except OverflowError:
        return None
    down = up[::-1]
    turn = complex(0.4, 0.9) / abs(complex(0.4, 0.9))
    radius = math.exp(math.log(abs(f[0])) / n) if f[0] else 1.0
    roots = [radius * turn**k for k in range(n)]
    bound = 4 * n * 2.0**-53
    try:
        for _ in range(200):
            settled = True
            for i, z in enumerate(roots):
                size = abs(z)
                x, terms = (1 / z, up) if size > 1 else (z, down)
                value = moduli = 0
                scale = abs(x)
                for c, m in terms:
                    value = value * x + c
                    moduli = moduli * scale + m
                small = abs(value) <= bound * moduli
                others = roots[:i] + roots[i + 1 :]
                if size > 1:
                    value *= z
                    for r in others:
                        value *= z / (z - r)
                else:
                    for r in others:
                        value /= z - r
                step = abs(value)
                if not step < math.inf:  # inf or NaN
                    return None
                roots[i] = z - value
                settled = settled and (small or step <= 2.0**-48 * size)
            if settled:
                return roots
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def poly_roots(f, precision):
    """All complex roots of f at the requested binary precision, by a
    precision ladder (Bini, Numer. Algorithms 13, 1996).

    The same Durand-Kerner iteration runs first in complex doubles
    (_float_seed), and mpmath's runs from those roots at the working
    precision: at 176 bits, 4 steps instead of 11 from the spiral on GM's
    quartic, 4 instead of 21 at degree 12 and 5 instead of 31 at degree
    30. Where the double pass overflows or does not settle, mpmath starts
    from its spiral scaled to radius |f(0)|^(1/deg f), the geometric mean
    of |root|. Each root is then polished by Newton steps on the exact
    coefficients, until a step returns its input or after six.
    """
    f = poly_trim(list(f))
    if len(f) < 2:
        return []
    import mpmath as mp

    with mp.workprec(precision + 48):
        desc = [to_mpf(c) for c in reversed(f)]
        n = len(f) - 1
        seed = _float_seed(f)
        if seed is None:
            radius = mp.mpf(abs(f[0])) ** (mp.mpf(1) / n) or 1
            turn = mp.mpc(0.4, 0.9) / abs(mp.mpc(0.4, 0.9))
            start = [radius * turn**k for k in range(n)]
        else:
            start = [mp.mpc(z) for z in seed]
        roots = mp.polyroots(desc, maxsteps=200, extraprec=precision, roots_init=start)
        fp = poly_deriv(f)
        polished = []
        for r in roots:
            x = mp.mpc(r)
            for _ in range(6):
                dfx = poly_eval(fp, x)
                if dfx == 0:
                    break
                step = x - poly_eval(f, x) / dfx
                if step == x:
                    break
                x = step
            polished.append(x)
    return polished


class RootSplit(Record):
    """The roots of a monic integer polynomial, as root_split sorts them:
    outside, the mpf product of |root| > 1; exact, the same product as an
    int when every root that is not a root of unity is an integer, else
    None; cyclotomic, each n with Phi_n | f; unit_roots, the other
    unit-circle roots with Im > 0. Everything counts multiplicity."""
    __slots__ = ("outside", "exact", "cyclotomic", "unit_roots")

    def __init__(self, outside, exact, cyclotomic, unit_roots):
        object.__setattr__(self, "outside", outside)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "cyclotomic", cyclotomic)
        object.__setattr__(self, "unit_roots", unit_roots)


def _sides(f, roots, reciprocal):
    """The side of the unit circle of each root of a square-free integer f
    (1 outside, -1 inside, 0 on it), or None if the precision settles less.

    The disk about x of radius deg(f) |f(x)/f'(x)|, widened by a bound on
    the rounding, holds a root of f; pairwise disjoint disks hold one each.
    The roots of a self-reciprocal f come in pairs r, 1/conj(r), so its disk
    that meets the circle holds a root on it if the disk's mirror image
    under z -> 1/conj(z) meets no other disk."""
    import mpmath as mp

    n = len(f) - 1
    df = poly_deriv(f)
    rounding = 8 * (n + 1) * mp.eps
    disks = []
    for x in roots:
        slope = abs(poly_eval(df, x)) - rounding * poly_eval([abs(c) for c in df], abs(x))
        value = abs(poly_eval(f, x)) + rounding * poly_eval([abs(c) for c in f], abs(x))
        disks.append((x, n * value / slope + rounding * abs(x) if slope > 0 else mp.inf))
    sides = []
    for j, (x, radius) in enumerate(disks):
        others = disks[:j] + disks[j + 1 :]
        scale = abs(x) ** 2 - radius**2
        if any(abs(x - y) <= radius + r for y, r in others):
            return None
        if abs(abs(x) - 1) > radius:
            sides.append(1 if abs(x) > 1 else -1)
        elif reciprocal and scale > 0 and not any(abs(x / scale - y) <= radius / scale + r for y, r in others):
            sides.append(0)
        else:
            return None
    return sides


# root_split's re-rooting ceiling in bits, four times the CLI's largest
# --precision: a part first rooted at the default 128 + 48 bits is rooted
# at most 11 times, one at 65536 + 48 bits twice
MAX_ROOT_BITS = 2**18


def root_split(split, precision):
    """Sort the roots of an exact_split by the unit circle, at a precision.

    Each reciprocal and rest part has simple roots and is rooted at
    max(precision + 48, coefficient bits + 16) bits, so its integer roots
    round correctly, and again at twice the bits until _sides certifies
    every root's side; only a reciprocal part may have roots on the circle.
    A part still uncertified where doubling would pass MAX_ROOT_BITS raises
    ValueError, and so does one mpmath does not converge on, at once: on
    x^8 + 2^900 x^7 + 1 each doubling triples the cost and still fails.
    """
    import mpmath as mp

    outside, exact, cyclo, unit = mp.mpf(1), 1, [], []
    for part in split:
        i = part.multiplicity
        cyclo += [n for n in part.cyclotomic for _ in range(i)]
        for poly, reciprocal in ((part.reciprocal, True), (part.rest, False)):
            if len(poly) == 1:
                continue
            bits = max(precision + 48, max(map(abs, poly)).bit_length() + 16)
            while True:
                with mp.workprec(bits):
                    try:
                        roots = poly_roots(poly, bits)
                    except mp.libmp.NoConvergence:
                        roots = None
                    sides = None if roots is None else _sides(poly, roots, reciprocal)
                if sides is not None:
                    break
                if roots is None or 2 * bits > MAX_ROOT_BITS:
                    why = "mpmath did not converge" if roots is None else f"the ceiling is {MAX_ROOT_BITS}"
                    raise ValueError(f"the roots of a degree-{len(poly) - 1} part are not certified at {bits} bits: {why}")
                bits *= 2
            with mp.workprec(bits):
                for r, side in zip(roots, sides):
                    if side > 0:
                        outside *= abs(r) ** i
                    elif side == 0 and mp.im(r) > 0:
                        unit += [r] * i
                candidates = {int(mp.nint(mp.re(r))) for r in roots}
            if exact is None:
                continue
            for r in candidates:
                q, rem = monic_divmod(poly, (-r, 1))
                if rem == [0]:
                    poly = q
                    exact *= abs(r) ** i
            if len(poly) > 1:
                exact = None
    return RootSplit(outside, exact, tuple(cyclo), tuple(unit))
