"""Exact polynomial and integer-matrix helpers.

Polynomials are coefficient lists in ascending degree order (coeffs[i] is
the z^i coefficient), over int or Fraction. Matrices are lists of rows of
ints. Everything is exact except the numeric root finding at the bottom,
which runs in mpmath at a caller-chosen precision.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import mpmath as mp


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


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] += a * b
    return poly_trim(out)


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


def cyclotomic_divisors(f, max_degree=None):
    """All n with Phi_n dividing f, searched up to phi(n) <= max_degree.

    phi(n) >= sqrt(n/2) bounds the search at n <= 2*max_degree^2.
    """
    d = poly_degree(f)
    if d < 1:
        return []
    if max_degree is None:
        max_degree = d
    hits = []
    for n in range(1, 2 * max_degree * max_degree + 2):
        phi = cyclotomic(n)
        if len(phi) - 1 > max_degree:
            continue
        if poly_divides(phi, f):
            hits.append(n)
    return hits


# ---------------------------------------------------------------------------
# integer matrices


def mat_identity(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


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


def mat_pow(A, k):
    """A^k by binary powering with exact integer entries, k >= 0."""
    d = len(A)
    result = mat_identity(d)
    base = [row[:] for row in A]
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def mat_trace(A):
    return sum(A[i][i] for i in range(len(A)))


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def int_det(A):
    """Determinant of an integer matrix by Bareiss fraction-free elimination."""
    M = [row[:] for row in A]
    n = len(M)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if M[i][i] == 0:
            for r in range(i + 1, n):
                if M[r][i] != 0:
                    M[i], M[r] = M[r], M[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                M[r][c] = (M[r][c] * M[i][i] - M[r][i] * M[i][c]) // prev
        prev = M[i][i]
    return sign * M[n - 1][n - 1]


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


def exterior_power(A, j):
    """Matrix of the j-th exterior power of A (minor matrix on j-subsets)."""
    d = len(A)
    subsets = list(combinations(range(d), j))
    out = [[0] * len(subsets) for _ in subsets]
    for a, S in enumerate(subsets):
        for b, T in enumerate(subsets):
            out[a][b] = int_det([[A[s][t] for t in T] for s in S]) if j else 1
    return out


def power_trace_table(A, X):
    """[tr(A^k)]_{k=0..X} via the characteristic-polynomial recurrence.

    Newton's identities seed p_1..p_d from the charpoly; beyond the degree,
    p_k = -(a_{d-1} p_{k-1} + ... + a_0 p_{k-d}) with integer arithmetic.
    Cost per step is O(d) bigint operations, independent of k.
    """
    d = len(A)
    cp = charpoly(A)  # x^d + a_{d-1} x^{d-1} + ... + a_0
    a = cp[:d]
    p = [0] * (X + 1)
    p[0] = d
    for k in range(1, min(d, X) + 1):
        # p_k + a_{d-1} p_{k-1} + ... + a_{d-k+1} p_1 + k a_{d-k} = 0
        s = k * a[d - k]
        for i in range(1, k):
            s += a[d - i] * p[k - i]
        p[k] = -s
    for k in range(d + 1, X + 1):
        s = 0
        for i in range(1, d + 1):
            s += a[d - i] * p[k - i]
        p[k] = -s
    return p


def det_iterate_minus_identity(A, X):
    """[det(A^k - I)]_{k=1..X} (index 0 unused) from exterior-power traces.

    det(A^k - I) = sum_{j=0}^{d} (-1)^(d-j) e_j(eigenvalues^k) and
    e_j(eigenvalues^k) = tr((wedge^j A)^k), so d+1 trace tables suffice;
    each follows a linear recurrence of order C(d, j).
    """
    d = len(A)
    tables = []
    for j in range(d + 1):
        if j == 0:
            tables.append([1] * (X + 1))
        else:
            tables.append(power_trace_table(exterior_power(A, j), X))
    out = [0] * (X + 1)
    for k in range(1, X + 1):
        s = 0
        for j in range(d + 1):
            term = tables[j][k]
            s += term if (d - j) % 2 == 0 else -term
        out[k] = s
    return out


# ---------------------------------------------------------------------------
# numeric roots (mpmath) with Newton refinement


def poly_roots(f, precision):
    """All complex roots of f at the requested binary precision.

    mpmath's simultaneous iteration finds the roots; each is then polished
    by a few Newton steps on the exact coefficients at elevated precision.
    """
    f = poly_trim(list(f))
    if poly_degree(f) < 1:
        return []
    with mp.workprec(precision + 48):
        desc = [
            mp.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else mp.mpf(int(c))
            for c in reversed(f)
        ]
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
