"""Power-series kernels over big integers.

The series routines are the inner loops of the whole library: expanding
exp(sum sigma_k z^k / k) through its derivative recurrence, and expanding
Euler products prod (1 - z^l)^(-P_l). The Euler product is the census's
cross-check: it reads the prime counts P only, never sigma or the
exponential route's N_n, so the two routes agree only if both are right.

The Euler product is taken one 2-adic level at a time, from the top
down (two_adic_product). The factors with even l form an Euler product
of their own in w = z^2, and so on inside it: level j holds the factors
l = 2^j * odd as (1 - w^odd)^(-P_l) in w = z^(2^j), up to degree X >> j.
Each finished level is spread onto the even powers of the next, so a
factor of length l runs on a series of X/2^j terms, not X. A factor
(1 - z^l)^(-P) has two exact expansions: the binomial series
sum_m C(P+m-1, m) z^(lm), one big-integer multiply-add per term, or P
divisions by (1 - z^l), each a running sum along every residue class
mod l, additions only. prefix_route_max picks the one with the smaller
weighted operation count, which depends only on (l, P, X).
"""

from itertools import accumulate
from math import exp, log
from operator import mul

BACKEND = "pure"


def exp_logderiv_series(sigma, X):
    """Coefficients N_0..N_X of exp(sum_{k>=1} sigma[k] z^k / k).

    Uses n*N_n = sum_{k=1}^{n} sigma_k N_{n-k}, N_0 = 1, which follows from
    differentiating the exponential. sigma is indexed so sigma[k] is the
    k-th term (sigma[0] is ignored). Every N_n must come out integral;
    a non-integral quotient means sigma is not realizable and raises.
    """
    if len(sigma) < X + 1:
        raise ValueError("sigma table shorter than requested degree")
    N = [0] * (X + 1)
    N[0] = 1
    head = sigma[1 : X + 1]
    for n in range(1, X + 1):
        # map stops after n terms: N[n-1::-1] is N_{n-1}, ..., N_0
        q, r = divmod(sum(map(mul, head, N[n - 1 :: -1])), n)
        if r:
            raise ValueError(f"non-integral N_{n}")
        N[n] = q
    return N


def log_count_bound(sigma, X):
    """An upper bound, in nats, on log N(X) = log(N_0 + ... + N_X), the
    N_n the coefficients of exp(sum_{k>=1} sigma[k] z^k / k) and every
    sigma[k] >= 0 for k <= X. It reads sigma only.

    Up to degree X the series is exp(sum_{k<=X} sigma_k z^k / k), whose
    coefficients are all >= 0, so N(X) <= z^(-X) exp(sum_{k<=X} sigma_k
    z^k / k) for every 0 < z <= 1. That is least where sum_k sigma_k z^k
    = X, or at z = 1 if the sum is at most X there. In t = log z the log
    of the sum is convex and increasing, so Newton's method from t = 0
    stays right of the root and comes down to it; any z in (0, 1] gives
    a valid bound.
    """
    logs = [(k, log(sigma[k])) for k in range(1, X + 1) if sigma[k]]
    if not logs:
        return 0.0

    def log_sum(lz, per_k=False):
        """log sum_k sigma_k e^(k lz), each term over k when per_k, and the
        mean k under the terms' weights."""
        terms = [ls + k * lz - (log(k) if per_k else 0) for k, ls in logs]
        top = max(terms)
        weights = [exp(t - top) for t in terms]
        total = sum(weights)
        return top + log(total), sum(map(mul, (k for k, _ in logs), weights)) / total

    log_x = log(X)
    lz = 0.0
    for _ in range(100):
        value, slope = log_sum(lz)
        if value - log_x <= 2.0**-40 * slope:
            break
        lz -= (value - log_x) / slope
    # Float slack, u = 2^-53 and A = max_k log sigma_k - X log z + log X + 1,
    # at least 1 + |term| for every term. math.log of an integer is within
    # 2u (|log| + 1), and k log z and the two additions round once each, so a
    # term is off by at most 7uA. The shifted exps, the at most X additions
    # of positive terms, the log and adding the top put the log-sum off by at
    # most u (16A + X + 2); its exp turns that into a relative error, and
    # -X log z and the last addition, both of positive terms, add 2u. The
    # float is within u (17A + X + 5) of the bound at this z, relatively;
    # taken four times over, which also covers a reader's division by log 2.
    size = max(ls for _, ls in logs) - X * lz + log_x + 1
    return (exp(log_sum(lz, per_k=True)[0]) - X * lz) * (1 + 2.0**-51 * (17 * size + X + 5))


def prefix_route_max(ell, X):
    """The largest count whose factor (1 - z^ell)^(-count) costs no more by
    prefix sums than by the binomial series, up to degree X.

    The prefix route takes count*(X+1) additions and count*ell slice
    passes, the binomial route sum_{m <= X/ell} (X+1-ell*m) multiply-adds.
    Weights 1 : 11 : 4 for an addition, a slice pass and a multiply-add
    hold on the 2008 calls (odd, P_l, X >> j) that the level walk makes on
    the FF(2), E(3,2) and GA products at X=512 and the GM and seeded-table
    products at X=256. Timing both routes on each, a least-squares fit
    gives 1 : 6.3 : 3.3, which picks the same route as 1 : 11 : 4 on all
    but one call; 1 : 11 : 4 takes the slower route on 8 calls, 0.2 ms of
    332 ms (Python 3.11). The limit is at most 4*X/ell, so a huge count
    always expands binomially.
    """
    M = X // ell
    multiply_adds = M * (X + 1) - ell * M * (M + 1) // 2
    return 4 * multiply_adds // (X + 1 + 11 * ell)


def inverse_factor_multiply(coeffs, ell, count, X):
    """Multiply a truncated series by (1 - z^ell)^(-count), degree <= X.

    Up to prefix_route_max(ell, X) the series is divided by (1 - z^ell)
    count times, each a running sum along every residue class mod ell.
    Beyond it, binom(count+m-1, m) z^(ell*m) times the series is added for
    each m <= X/ell, the binomials built incrementally.
    """
    if count < 0:
        raise ValueError("negative factor exponent")
    out = list(coeffs[: X + 1])
    if count <= prefix_route_max(ell, X):
        for _ in range(count):
            for r in range(ell):
                out[r::ell] = accumulate(out[r::ell])
        return out
    binom = 1
    m = 1
    while ell * m <= X:
        # binom(count+m-1, m) from binom(count+m-2, m-1)
        binom = binom * (count + m - 1) // m
        shift = ell * m
        for n in range(shift, X + 1):
            c = coeffs[n - shift]
            if c:
                out[n] += binom * c
        m += 1
    return out


def two_adic_product(X, factors, one, empty, multiply):
    """Rows 0..X of a product of factors (ell, *args), each a series in
    z^ell, taken one 2-adic level at a time from the top down.

    Level j holds the factors of length ell = 2^j * odd, written in
    w = z^(2^j) up to degree X >> j, where such a factor is one of
    length odd. The finished level j + 1 is a series in w^2, so it is
    spread onto the even rows of level j (the odd rows start as empty()),
    and multiply(rows, odd, *args, X >> j) then returns the rows times
    each factor of level j. A factor of length ell thus runs on
    (X >> j) + 1 rows, not X + 1. The product starts from the single
    row one; every ell is at most X.
    """
    levels = [[] for _ in range(X.bit_length())]
    for ell, *args in factors:
        j = (ell & -ell).bit_length() - 1
        levels[j].append((ell >> j, *args))
    rows = [one]
    for j in range(len(levels) - 1, -1, -1):
        top = X >> j
        level = [empty() for _ in range(top + 1)]
        level[::2] = rows
        for odd, *args in levels[j]:
            level = multiply(level, odd, *args, top)
        rows = level
    return rows


def euler_product_series(P, X):
    """Coefficients of prod_{l=1}^{X} (1 - z^l)^(-P[l]) up to degree X.

    P is indexed like sigma (P[0] ignored). Exact big-integer expansion
    by two_adic_product: (1 - z^l)^(-P[l]) with l = 2^j * odd is expanded
    as (1 - w^odd)^(-P[l]) in w = z^(2^j), up to degree X >> j.
    """
    factors = [(ell, P[ell]) for ell in range(1, min(X, len(P) - 1) + 1) if P[ell]]
    return two_adic_product(X, factors, 1, int, inverse_factor_multiply)
