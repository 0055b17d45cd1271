"""Arithmetic kernels: Mobius function, p-adic valuations, multiplicative
orders, lifting-the-exponent parameters, and periodic gcd-sequence checks.

Everything here is exact. Rationals are fractions.Fraction; no floats.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24
# (covers every 64-bit input with a wide margin).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic primality test for n below 3.3e24, probabilistic above.

    Miller-Rabin with the fixed witness set; inputs here are small (prime
    parameters of systems), so this is effectively deterministic.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mobius(n):
    """Mobius function mu(n).

    mu(1) = 1; mu(n) = 0 if a square divides n; otherwise (-1)^(number of
    prime factors). Trial division suffices at the input sizes used here.
    """
    if n < 1:
        raise ValueError("mobius requires n >= 1")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def divisors(n):
    """Sorted list of positive divisors of n >= 1."""
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def p_valuation(k, p):
    """(v, abs) with v = v_p(k) and abs = |k|_p = p^(-v) as an exact rational.

    k must be a nonzero integer (v_p(0) is infinite) and p prime.
    """
    if k == 0:
        raise ValueError("p-adic valuation of 0 is undefined (infinite)")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    k = abs(k)
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v, Fraction(1, p**v)


def multiplicative_order(n, p):
    """Least d >= 1 with n^d = 1 mod p, for prime p not dividing n."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n % p == 0:
        raise ValueError("order undefined: p divides n")
    # d divides p-1; scan divisors in increasing order.
    for d in divisors(p - 1):
        if pow(n, d, p) == 1:
            return d
    raise AssertionError("unreachable: Fermat guarantees an order")


def lte_params(n, p):
    """(d, e) for the lifting-the-exponent identity at an odd prime p.

    d is the multiplicative order of n mod p and e = v_p(n^d - 1). Then for
    every k: v_p(n^k - 1) = 0 if d does not divide k, else e + v_p(k/d).
    """
    if p == 2:
        raise ValueError("odd primes only")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n % p == 0:
        raise ValueError("order undefined: p divides n")
    if n < 2:
        raise ValueError("lte_params requires n >= 2")
    d = multiplicative_order(n, p)
    e, _ = p_valuation(n**d - 1, p)
    return d, e


@dataclass(frozen=True)
class PeriodicSequence:
    """Periodic sequence a_1, a_2, ... of non-negative rationals.

    One period is stored; a_k reads values[(k-1) mod period]. Evaluation is
    total for k >= 1.
    """

    values: tuple

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        if not vals:
            raise ValueError("period must be >= 1")
        if any(v < 0 for v in vals):
            raise ValueError("values must be non-negative")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, v):
        return cls((v,))

    @property
    def period(self):
        return len(self.values)

    def at(self, k):
        if k < 1:
            raise ValueError("defined for k >= 1")
        return self.values[(k - 1) % self.period]

    def is_integral(self, window=None):
        """True if every value over the window (default: one period) is an integer."""
        n = self.period if window is None else window
        return all(self.at(k).denominator == 1 for k in range(1, n + 1))


def is_gcd_sequence(seq, window):
    """Check gcd(a_m, a_n) = a_{gcd(m,n)} for all 1 <= m, n <= window.

    Requires integer values throughout the window; a non-integral value is
    an error, not a False (the property has no meaning there).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    vals = []
    for k in range(1, window + 1):
        v = seq.at(k)
        if v.denominator != 1:
            raise ValueError(f"non-integral value {v} at k={k}")
        vals.append(int(v))
    for m in range(1, window + 1):
        for n in range(m, window + 1):
            if gcd(vals[m - 1], vals[n - 1]) != vals[gcd(m, n) - 1]:
                return False
    return True
