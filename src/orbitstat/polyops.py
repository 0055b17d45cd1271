"""Exact polynomial and integer-matrix helpers.

Polynomials are coefficient lists in ascending degree order (coeffs[i] is
the z^i coefficient), over int or Fraction. Matrices are lists of rows of
ints. Everything is exact except the numeric root finding at the bottom,
which runs in mpmath at a caller-chosen precision.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import mpmath as mp

from orbitstat.numtheory import divisors, is_prime


# ---------------------------------------------------------------------------
# polynomial arithmetic


def poly_trim(f):
    i = len(f) - 1
    while i > 0 and f[i] == 0:
        i -= 1
    return f[: i + 1]


def poly_degree(f):
    f = poly_trim(list(f))
    if len(f) == 1 and f[0] == 0:
        return -1
    return len(f) - 1


def poly_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_deriv(f):
    if len(f) <= 1:
        return [0]
    return [i * c for i, c in enumerate(f)][1:]


def poly_divmod(f, g):
    """Quotient and remainder of f by g over the rationals (g nonzero)."""
    f = [Fraction(c) for c in poly_trim(list(f))]
    g = [Fraction(c) for c in poly_trim(list(g))]
    if poly_degree(g) < 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(f) - len(g) + 1)
    r = f[:]
    dg = len(g) - 1
    lg = g[-1]
    while poly_degree(r) >= dg and poly_degree(r) >= 0:
        dr = len(poly_trim(r)) - 1
        coef = r[dr] / lg
        q[dr - dg] = coef
        for i in range(len(g)):
            r[dr - dg + i] -= coef * g[i]
        r = poly_trim(r)
        if poly_degree(r) < 0:
            break
    return poly_trim(q), poly_trim(r)


def poly_monic(f):
    f = poly_trim([Fraction(c) for c in f])
    lead = f[-1]
    if lead == 0:
        return f
    return [c / lead for c in f]


def poly_gcd(f, g):
    """Monic gcd over the rationals by the Euclidean algorithm."""
    a = poly_trim([Fraction(c) for c in f])
    b = poly_trim([Fraction(c) for c in g])
    while poly_degree(b) >= 0:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if poly_degree(a) < 0:
        return [Fraction(0)]
    return poly_monic(a)


def poly_reversal(f):
    """x^deg(f) * f(1/x): the coefficient list reversed."""
    return poly_trim(list(reversed(poly_trim(list(f)))))


def poly_divides(g, f):
    """True if g divides f exactly over the rationals."""
    _, r = poly_divmod(f, g)
    return poly_degree(r) < 0


def poly_int(f):
    """Cast rational coefficients known to be integral back to ints."""
    out = []
    for c in f:
        c = Fraction(c)
        if c.denominator != 1:
            raise ValueError("non-integral coefficient")
        out.append(int(c))
    return out


def _divide_linear(f, r):
    """Quotient and remainder of f by (x - r), by synthetic division."""
    q = [0] * (len(f) - 1)
    acc = 0
    for i in range(len(f) - 1, 0, -1):
        acc = acc * r + f[i]
        q[i - 1] = acc
    return q, acc * r + f[0]


def squarefree_factors(f):
    """Square-free decomposition of a monic polynomial (Musser): pairs
    (s, i) with f = prod s^i, each s monic, square-free, of degree >= 1 and
    coprime to the others."""
    out = []
    a = poly_gcd(f, poly_deriv(f))  # prod s^(i-1)
    b = poly_divmod(f, a)[0]  # prod s
    i = 1
    while poly_degree(b) >= 1:
        y = poly_gcd(a, b)  # prod of the s with multiplicity > i
        if poly_degree(b) > poly_degree(y):
            out.append((poly_divmod(b, y)[0], i))
        a = poly_divmod(a, y)[0]
        b = y
        i += 1
    return out


# ---------------------------------------------------------------------------
# cyclotomic polynomials

_cyclo_cache = {}


def cyclotomic(n):
    """Cyclotomic polynomial Phi_n as an integer coefficient list.

    Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, computed by exact division.
    """
    if n in _cyclo_cache:
        return _cyclo_cache[n]
    if n < 1:
        raise ValueError("n >= 1 required")
    f = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = poly_divmod(f, cyclotomic(d))
            assert poly_degree(r) < 0
            f = q
    f = poly_int(f)
    _cyclo_cache[n] = f
    return f


def cyclotomic_divisors(f):
    """All n with Phi_n dividing f, searched up to phi(n) <= deg f.

    phi(n) >= sqrt(n/2) bounds the search at n <= 2*(deg f)^2; Phi_n is
    built only for the n whose degree phi(n) passes.
    """
    d = poly_degree(f)
    if d < 1:
        return []
    hits = []
    for n in range(1, 2 * d * d + 2):
        phi = n
        for p in divisors(n):
            if is_prime(p):
                phi = phi // p * (p - 1)
        if phi <= d and poly_divides(cyclotomic(n), f):
            hits.append(n)
    return hits


# ---------------------------------------------------------------------------
# integer matrices


def mat_mul(A, B):
    d = len(A)
    m = len(B[0])
    inner = len(B)
    out = [[0] * m for _ in range(d)]
    for i in range(d):
        Ai = A[i]
        row = out[i]
        for k in range(inner):
            a = Ai[k]
            if a == 0:
                continue
            Bk = B[k]
            for j in range(m):
                b = Bk[j]
                if b:
                    row[j] += a * b
    return out


def mat_trace(A):
    return sum(A[i][i] for i in range(len(A)))


def charpoly(A):
    """Monic characteristic polynomial det(xI - A), ascending int coefficients
    (1 for the empty matrix).

    Faddeev-LeVerrier: M_0 = 0, c_0 = 1, M_k = A(M_(k-1) + c_(k-1) I),
    c_k = -tr(M_k)/k; all c_k are integers for integer A.
    """
    d = len(A)
    if any(len(row) != d for row in A):
        raise ValueError("matrix must be square")
    coeffs = [0] * d + [1]
    M = [[0] * d for _ in range(d)]
    c = 1
    for k in range(1, d + 1):
        for i in range(d):
            M[i][i] += c
        M = mat_mul(A, M)
        c, r = divmod(-mat_trace(M), k)
        assert r == 0, "Faddeev-LeVerrier trace not divisible"
        coeffs[d - k] = c
    return coeffs


def companion_matrix(f):
    """Companion matrix of a monic integer polynomial (ascending coeffs)."""
    f = poly_int(poly_trim(list(f)))
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
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def poly_roots(f, precision):
    """All complex roots of f at the requested binary precision.

    mpmath's simultaneous iteration finds the roots; each is then polished
    by a few Newton steps on the exact coefficients at elevated precision.
    """
    f = poly_trim(list(f))
    if poly_degree(f) < 1:
        return []
    with mp.workprec(precision + 48):
        desc = [to_mpf(c) for c in reversed(f)]
        roots = mp.polyroots(desc, maxsteps=200, extraprec=precision)
        fp = poly_deriv(f)
        polished = []
        for r in roots:
            x = mp.mpc(r)
            for _ in range(6):
                fx = poly_eval(f, x)
                dfx = poly_eval(fp, x)
                if dfx == 0:
                    break
                x = x - fx / dfx
            polished.append(x)
    return polished


@dataclass(frozen=True)
class RootSplit:
    """The roots of a monic integer polynomial, as root_split sorts them:
    outside, the mpf product of |root| > 1; exact, the same product as an
    int when every root that is not a root of unity is an integer, else
    None; cyclotomic, each n with Phi_n | f; unit_roots, the other
    unit-circle roots with Im > 0. Everything counts multiplicity."""

    outside: object
    exact: int
    cyclotomic: tuple
    unit_roots: tuple


def root_split(f, precision):
    """Split the roots of a monic integer polynomial f, exact parts first.

    Zero roots are dropped; the rest is split into square-free factors s^i,
    and every Phi_n dividing s is divided out exactly. What is left of s is
    rooted once, as g = gcd(s, reversal s), which holds every remaining
    unit-circle root, and s/g. A part is rooted at max(precision + 48,
    coefficient bits + 16) bits, so its integer roots round correctly; its
    roots are simple, so root finding converges. Roots within
    2^(-precision/2) of the unit circle count as on it.
    """
    f = poly_int(poly_trim(list(f)))
    while len(f) > 1 and f[0] == 0:
        f = f[1:]
    eps = mp.mpf(2) ** (-(precision // 2))
    outside = mp.mpf(1)
    exact = 1
    cyclo = []
    unit = []
    for s, i in squarefree_factors(f):
        for n in cyclotomic_divisors(s):
            s = poly_divmod(s, cyclotomic(n))[0]
            cyclo += [n] * i
        g = poly_gcd(s, poly_reversal(s))
        for part, reciprocal in ((g, True), (poly_divmod(s, g)[0], False)):
            part = poly_int(part)
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
                q, rem = _divide_linear(part, r)
                if rem == 0:
                    part = q
                    exact *= abs(r) ** i
            if len(part) > 1:
                exact = None
    return RootSplit(outside, exact, tuple(cyclo), tuple(unit))
