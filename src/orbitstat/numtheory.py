"""Arithmetic kernels: primality, divisors, p-adic valuations,
multiplicative orders, lifting-the-exponent parameters, and periodic
gcd-sequence checks.

Everything here is exact. Rationals are fractions.Fraction; no floats.

Also Record, the base of the package's immutable records: this module
imports no other of the package, so every module can import it.
"""

from fractions import Fraction
from math import gcd

# The longest period a product form may carry: E(p, n) builds r and s with
# the order of n mod p as their period, and the residue-class walk of the
# Cesaro mean visits the lcm of every sequence's shortest period.
MAX_PERIOD = 2**17

# Miller-Rabin on the primes up to 41 is deterministic below psi_13, the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic primality test for n < psi_13 (about 3.3 * 10^24): a
    larger n raises ValueError, since the fixed witnesses decide nothing
    there."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is decided only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
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
    """v_p(k), the exponent of p in k.

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
    return v


def multiplicative_order(n, p):
    """Least d >= 1 with n^d = 1 mod p, for prime p not dividing n.

    d divides p - 1, so the candidates d <= MAX_PERIOD that divide p - 1
    are tried in increasing order: at most MAX_PERIOD trial divisions,
    however large p is. An order above MAX_PERIOD is refused.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n % p == 0:
        raise ValueError("order undefined: p divides n")
    for d in range(1, min(p - 1, MAX_PERIOD) + 1):
        if (p - 1) % d == 0 and pow(n, d, p) == 1:
            return d
    raise ValueError(f"the order of n mod p exceeds the period limit 2^{MAX_PERIOD.bit_length() - 1}")


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
    # n^d - 1 mod p^j for j = 2, 4, 8, ... until it is nonzero there; its
    # valuation is then below j, so n^d itself is never formed
    j = 1
    rest = 0
    while not rest:
        j *= 2
        rest = pow(n, d, p**j) - 1
    return d, p_valuation(rest, p)


class Record:
    """Base of the immutable records: fields in __slots__, set by object.__setattr__ in __init__;
    repr, == and hash read the fields __init__ takes, save that eq=False keeps identity."""
    __slots__ = ()

    def __init_subclass__(cls, eq=True):
        cls._fields = cls.__init__.__code__.co_varnames[1 : cls.__init__.__code__.co_argcount]
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return [getattr(self, n) for n in self._fields] == [getattr(other, n) for n in self._fields]

    def __hash__(self):
        return hash(tuple(getattr(self, n) for n in self._fields))


class PeriodicSequence(Record):
    """Periodic sequence a_1, a_2, ... of non-negative rationals.

    One period is stored; a_k reads values[(k-1) mod period]. Evaluation is
    total for k >= 1.
    """
    __slots__ = ("values",)

    def __init__(self, values):
        # a Fraction is kept as it is: Fraction(v) would check its type again
        vals = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
        if not vals:
            raise ValueError("period must be >= 1")
        if any(v.numerator < 0 for v in vals):
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

    def is_integral(self):
        """True if every value is an integer: one period holds them all."""
        return all(v.denominator == 1 for v in self.values)


def minimal_period(values):
    """The least d dividing len(values) >= 1 with values[k] = values[k mod d]
    for every k: the shortest period that the given one repeats. Values are
    read once, as (numerator, denominator) pairs, which compare without a
    call into Fraction."""
    pairs = [(v.numerator, v.denominator) for v in values]
    return next(d for d in divisors(len(pairs)) if pairs[d:] == pairs[:-d])


def is_gcd_sequence(seq, meet=gcd):
    """Check gcd(a_m, a_n) = a_{gcd(m,n)} for all m, n >= 1 on a periodic
    sequence, in O(L + tau(L)^2) gcds for its period L.

    The property gives a_n = gcd(a_n, a_{n+L}) = a_{gcd(n,L)}, so a is a
    function g of gcd(n, L), and it holds exactly when a_n = a_{gcd(n,L)}
    for n <= L and g(gcd(d, e)) = gcd(g(d), g(e)) for all divisors d <= e
    of L. The pair d = e fails on a negative value, as m = n does.

    meet=min checks min(a_m, a_n) = a_{gcd(m,n)} instead: the gcd property
    of p^a for an exponent sequence a, by the same two checks.

    Requires integer values; a non-integral value is an error, not a False
    (the property has no meaning there).
    """
    vals = []
    for k, v in enumerate(seq.values, 1):
        if v.denominator != 1:
            raise ValueError(f"non-integral value {v} at k={k}")
        vals.append(int(v))
    L = len(vals)
    if any(vals[n - 1] != vals[gcd(n, L) - 1] for n in range(1, L + 1)):
        return False
    divs = divisors(L)
    return all(meet(vals[d - 1], vals[e - 1]) == vals[gcd(d, e) - 1] for i, d in enumerate(divs) for e in divs[i:])
