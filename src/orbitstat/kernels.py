"""Power-series kernels over big integers.

These three routines are the inner loops of the whole library: expanding
exp(sum sigma_k z^k / k) through its derivative recurrence, and expanding
Euler products prod (1 - z^l)^(-P_l) by repeated factor multiplication.
"""

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
    for n in range(1, X + 1):
        acc = 0
        for k in range(1, n + 1):
            acc += sigma[k] * N[n - k]
        q, r = divmod(acc, n)
        if r:
            raise ValueError(f"non-integral N_{n}")
        N[n] = q
    return N


def inverse_factor_multiply(coeffs, ell, count, X):
    """Multiply a truncated series by (1 - z^ell)^(-count), degree <= X.

    (1 - z^ell)^(-count) = sum_m binom(count+m-1, m) z^(ell*m); the binomials
    are built incrementally to avoid refactoring huge integers.
    """
    if count < 0:
        raise ValueError("negative factor exponent")
    if count == 0:
        return list(coeffs[: X + 1])
    out = list(coeffs[: X + 1])
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
