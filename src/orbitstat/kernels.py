"""Power-series kernels over big integers.

The three series routines are the inner loops of the whole library: expanding
exp(sum sigma_k z^k / k) through its derivative recurrence, and expanding
Euler products prod (1 - z^l)^(-P_l) one factor at a time. A factor
(1 - z^l)^(-P) has two exact expansions: the binomial series
sum_m C(P+m-1, m) z^(lm), one big-integer multiply-add per term, or P
divisions by (1 - z^l), each a running sum along every residue class
mod l, additions only. prefix_route_max picks the one with the smaller
weighted operation count, which depends only on (l, P, X).
"""

from itertools import accumulate
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


def prefix_route_max(ell, X):
    """The largest count whose factor (1 - z^ell)^(-count) costs no more by
    prefix sums than by the binomial series, up to degree X.

    The prefix route takes count*(X+1) additions and count*ell slice
    passes, the binomial route sum_{m <= X/ell} (X+1-ell*m) multiply-adds.
    Weights 1 : 11 : 4 for an addition, a slice pass and a multiply-add
    come from timing both routes on every factor of the FF(2), E(3,2) and
    GA products at X=512 and the GM and seeded-table products at X=256
    (medians 56 ns, 614 ns and 226 ns on Python 3.11). The limit is at
    most 4*X/ell, so a huge count always expands binomially.
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


def euler_product_series(P, X):
    """Coefficients of prod_{l=1}^{X} (1 - z^l)^(-P[l]) up to degree X.

    P is indexed like sigma (P[0] ignored). Exact big-integer expansion.
    """
    coeffs = [0] * (X + 1)
    coeffs[0] = 1
    for ell in range(1, X + 1):
        if ell < len(P) and P[ell]:
            coeffs = inverse_factor_multiply(coeffs, ell, P[ell], X)
    return coeffs
