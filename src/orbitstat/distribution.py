"""Exact joint distributions of orbit length and additive statistics.

A strongly additive statistic assigns each prime orbit a weight and each
general orbit the sum of weights over its distinct prime divisors. The
generating product prod_ell prod_classes (1 + u z^ell/(1-z^ell))^count,
truncated at degree X, enumerates general orbits jointly by total length
and statistic value with exact big-integer coefficients. From it come the
PMF of W(X) under the uniform measure on orbits of length at most X,
moments, MGFs, and the prime-orbit measures rho_X whose Laplace
transforms drive the rate functions in the ldp module.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm

import mpmath as mp

from orbitstat import kernels
from orbitstat.polyops import to_mpf


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """A finitely supported measure: sorted (value, mass) atoms, masses > 0.

    Values and masses are exact rationals wherever the construction allows;
    mpf masses appear only for irrational growth rates.
    """

    atoms: tuple
    _real: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for _, m in self.atoms:
            if m < 0:
                raise ValueError("negative mass")
        vals = [v for v, _ in self.atoms]
        if sorted(vals) != vals or len(set(vals)) != len(vals):
            raise ValueError("atoms must be sorted by value and distinct")

    @classmethod
    def from_dict(cls, d):
        items = sorted(((v, m) for v, m in d.items() if m != 0), key=lambda t: t[0])
        return cls(tuple(items))

    @property
    def support(self):
        return tuple(v for v, _ in self.atoms)

    def total_mass(self):
        return sum((m for _, m in self.atoms), Fraction(0))

    def is_probability(self, tol=0):
        total = self.total_mass()
        if tol == 0:
            return total == 1
        return abs(total - 1) <= tol

    def mass_at(self, value):
        for v, m in self.atoms:
            if v == value:
                return m
        return Fraction(0)

    def mean(self):
        return sum((v * m for v, m in self.atoms), Fraction(0))

    def variance(self):
        mu = self.mean()
        return sum(((v - mu) ** 2 * m for v, m in self.atoms), Fraction(0))

    def tail_mass(self, threshold):
        """Mass of [threshold, +inf); exact when atoms are rational."""
        return sum((m for v, m in self.atoms if v >= threshold), Fraction(0))

    def real_atoms(self, precision=128):
        """The atoms as (value, mass) mpf pairs at precision + 16 bits,
        converted once per precision and shared by every transform."""
        if precision not in self._real:
            with mp.workprec(precision + 16):
                self._real[precision] = tuple((to_mpf(v), to_mpf(m)) for v, m in self.atoms)
        return self._real[precision]

    def laplace(self, theta, precision=128):
        """Sum of mass * e^(theta * value) at working precision."""
        atoms = self.real_atoms(precision)
        with mp.workprec(precision + 16):
            theta = mp.mpf(theta)
            acc = mp.mpf(0)
            for v, m in atoms:
                acc += m * mp.e ** (theta * v)
            return +acc


@dataclass(frozen=True, eq=False)
class WeightedAdditive:
    """Per-length weight classes of a strongly additive statistic.

    primes is the P table (index 0 unused); classes[ell] lists (count,
    weight) pairs whose counts partition P_ell. A distinct prime orbit
    from a class contributes its weight once, regardless of multiplicity.
    """

    primes: tuple
    classes: tuple

    def __post_init__(self):
        if len(self.primes) != len(self.classes):
            raise ValueError("primes and classes tables must align")
        for ell in range(1, len(self.primes)):
            total = 0
            for count, weight in self.classes[ell]:
                if count < 0:
                    raise ValueError(f"negative class count at ell={ell}")
                if not isinstance(weight, Fraction):
                    raise ValueError("weights must be rational")
                total += count
            if total != self.primes[ell]:
                raise ValueError(
                    f"class counts at ell={ell} sum to {total}, expected P={self.primes[ell]}"
                )

    @property
    def X(self):
        return len(self.primes) - 1


def _ptable(census_or_primes):
    primes = getattr(census_or_primes, "primes", census_or_primes)
    return tuple(primes)


def unit_weights(census_or_primes):
    """g = number of distinct prime divisors (weight 1 everywhere)."""
    P = _ptable(census_or_primes)
    classes = [()] + [((P[ell], Fraction(1)),) for ell in range(1, len(P))]
    return WeightedAdditive(P, tuple(classes))


def subset_weights(census_or_primes, pred, scale=Fraction(1)):
    """g = scale * (number of distinct primes whose length satisfies pred).

    Primes outside the subset sit in a weight-0 class, so the induced
    prime measure keeps an explicit atom at 0.
    """
    P = _ptable(census_or_primes)
    scale = Fraction(scale)
    classes = [()]
    for ell in range(1, len(P)):
        classes.append(((P[ell], scale if pred(ell) else Fraction(0)),))
    return WeightedAdditive(P, tuple(classes))


def length_decay_weights(census_or_primes, lam):
    """g with per-prime weight lam^(-ell(P)).

    For rational lam the weights are exact; otherwise each lam^(-ell) is
    replaced by the dyadic rational of its double-precision value (exact
    bucketing requires rational weights; the surrogate's rounding is the
    documented double rounding, deterministic across runs).
    """
    P = _ptable(census_or_primes)
    classes = [()]
    exact = isinstance(lam, (int, Fraction))
    if exact:
        lam = Fraction(lam)
    for ell in range(1, len(P)):
        if exact:
            w = Fraction(1) / lam**ell
        else:
            w = Fraction(*float(mp.mpf(lam) ** (-ell)).as_integer_ratio())
        classes.append(((P[ell], w),))
    return WeightedAdditive(P, tuple(classes))


@dataclass(frozen=True, eq=False)
class BivariateCensus:
    """Sparse exact table c_{n,k}: orbits of total length n whose statistic
    equals values[k]. orbit_totals carries N_0..N_X for marginal checks and
    PMF denominators."""

    X: int
    values: tuple
    cells: dict
    orbit_totals: tuple

    def marginal(self, n):
        return sum(c for (m, _), c in self.cells.items() if m == n)

    def count_orbits(self, X=None):
        X = self.X if X is None else X
        return sum(self.orbit_totals[: X + 1])


def joint_census(g, X, census=None):
    """Exact bivariate census of (length, statistic) up to length X.

    Multiplies the per-class factors (1 + u_w z^ell/(1-z^ell))^count:
    using d >= 1 distinct primes of a class (count available) with total
    multiplicity k >= d at length ell contributes multiplicity
    C(count, d) C(k-1, d-1) at z-degree ell*k and statistic d*w.

    Statistic values are kept as integer keys: every weight is scaled by D,
    the lcm of the weight denominators over the classes with count > 0, so
    a cell's key is D times its value and values[k] is Fraction(key, D).
    Each class updates one list of per-length rows in place, lengths
    descending (a row is read before any lower row writes into it), and
    stops at the first factor degree that overshoots X. The marginal over
    statistic values is checked cell-exactly against the orbit counts (the
    census's recurrence route when one is supplied, the product route
    otherwise).
    """
    if g.X < X:
        raise ValueError("weight classes do not cover the requested range")
    P = g.primes
    if census is not None:
        totals = list(census.totals[: X + 1])
        for ell in range(1, X + 1):
            if P[ell] != census.primes[ell]:
                raise ValueError(f"class counts at ell={ell} inconsistent with census")
    else:
        totals = kernels.euler_product_series(list(P[: X + 1]), X)
    live = [(ell, count, weight) for ell in range(1, X + 1)
            for count, weight in g.classes[ell] if count]
    D = lcm(*(weight.denominator for _, _, weight in live))
    # rows[n]: statistic key -> number of orbits of total length n
    rows = [{} for _ in range(X + 1)]
    rows[0][0] = 1
    for ell, count, weight in live:
        key = weight.numerator * (D // weight.denominator)
        # (degree, key step, multiplicity), degree ascending
        factor = [
            (ell * k, d * key, comb(count, d) * comb(k - 1, d - 1))
            for k in range(1, X // ell + 1)
            for d in range(1, min(k, count) + 1)
        ]
        for n in range(X - ell, -1, -1):
            row = rows[n]
            if not row:
                continue
            for deg, step, mult in factor:
                if n + deg > X:
                    break
                target = rows[n + deg]
                get = target.get
                for v, c in row.items():
                    target[v + step] = get(v + step, 0) + c * mult
    for n in range(X + 1):
        have = sum(rows[n].values())
        if have != totals[n]:
            raise AssertionError(f"marginal mismatch at n={n}: {have} != {totals[n]}")
    keys = sorted({v for row in rows for v in row})
    key_index = {v: k for k, v in enumerate(keys)}
    values = tuple(Fraction(v, D) for v in keys)
    flat = {(n, key_index[v]): c for n, row in enumerate(rows) for v, c in row.items()}
    return BivariateCensus(
        X=X,
        values=values,
        cells=flat,
        orbit_totals=tuple(totals),
    )


def w_pmf(bc, X=None):
    """Exact PMF of the statistic under the uniform measure on orbits of
    total length <= X (empty orbit included, statistic 0)."""
    X = bc.X if X is None else X
    if X > bc.X or X < 0:
        raise ValueError("X outside census")
    denom = bc.count_orbits(X)
    masses = {}
    for (n, k), c in bc.cells.items():
        if n <= X:
            v = bc.values[k]
            masses[v] = masses.get(v, 0) + c
    atoms = {v: Fraction(c, denom) for v, c in masses.items()}
    pmf = DiscreteMeasure.from_dict(atoms)
    if not pmf.is_probability():
        raise AssertionError("PMF fails to normalize (internal error)")
    return pmf


def expected_w(census, X, bc=None):
    """E[W(X)] two independent ways: the prime-sum identity
    sum_ell P_ell N(X-ell)/N(X) and the mean of the exact PMF.

    bc is the census's unit-weight joint census up to length >= X, built
    here when not given. Returns (lemma_value, pmf_value) after asserting
    exact equality.
    """
    if X < 0 or X > census.X_max:
        raise ValueError("X outside census")
    denom = census.count_orbits(X)
    acc = Fraction(0)
    for ell in range(1, X + 1):
        if census.primes[ell]:
            acc += Fraction(census.primes[ell] * census.count_orbits(X - ell), denom)
    if bc is None:
        bc = joint_census(unit_weights(census), X, census=census)
    via_pmf = w_pmf(bc, X).mean()
    if acc != via_pmf:
        raise AssertionError(
            f"internal-consistency error: prime-sum mean {acc} != PMF mean {via_pmf}"
        )
    return acc, via_pmf


def mgf(bc, X, theta, precision=128):
    """E[exp(theta * g)] over orbits of length <= X, at working precision."""
    return w_pmf(bc, X).laplace(theta, precision)


def rho_measure(g, census, X, precision=128):
    """The prime-orbit measure rho_X: an atom at each distinct weight w
    with mass (sum over ell of count_{ell,w} Lambda^(-ell)) / M(X).

    Exact rationals when the growth rate is exact; masses always sum to 1.
    The returned measure's laplace method is the transform evaluator.
    """
    if X < 1 or X > census.X_max:
        raise ValueError("X outside census")
    if g.X < X:
        raise ValueError("weight classes do not cover the requested range")
    exact = census.lam.exact
    with mp.workprec(precision + 16):
        M = census.mertens(X) if exact is None else census.mertens_exact(X)
        if M == 0:
            raise ValueError("no prime orbits in range")
        buckets = {}
        for ell in range(1, X + 1):
            scale = census.lam.value ** (-ell) if exact is None else 1 / exact**ell
            for count, w in g.classes[ell]:
                if count:
                    buckets[w] = buckets.get(w, 0) + count * scale
        atoms = {w: m / M for w, m in buckets.items() if m}
        return DiscreteMeasure.from_dict(atoms)
