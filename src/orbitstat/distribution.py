"""Exact joint distributions of orbit length and additive statistics.

A strongly additive statistic assigns each prime orbit a weight and each
general orbit the sum of weights over its distinct prime divisors. The
generating product prod_ell prod_classes (1 + u z^ell/(1-z^ell))^count,
truncated at degree X, enumerates general orbits jointly by total length
and statistic value with exact big-integer coefficients. From it come the
PMF of W(X) under the uniform measure on orbits of length at most X,
its moments, and the prime-orbit measures rho_X whose Laplace transforms
drive the rate functions in the ldp module. The census is one table of
per-length rows, which every reader sums.

For a count statistic (at most one nonzero weight, as for unit and subset
weights) the product is expanded by Kronecker substitution along u: row n
is one integer sum_d c_(n,d) 2^(S d), d the number of distinct primes, so
a factor term costs one multiply, shift and add. The slot width S comes
from sigma, never from the counts the rows are checked against: the
smaller of the Dold bound N_n <= s^n, s = max_k sigma_k^(1/k), and the
saddle-point bound on N(X). Slots wider than the measured crossover, and
statistics with several nonzero weights, keep one {key: count} dict per
row. Either way the classes are multiplied in one 2-adic level at a
time, as the Euler product is (kernels.two_adic_product).
"""

from fractions import Fraction
from math import comb, floor, lcm, log, log2

from orbitstat.kernels import log_count_bound, two_adic_product
from orbitstat.numtheory import Record
from orbitstat.polyops import to_mpf


class DiscreteMeasure(Record, eq=False):
    """A finitely supported measure: sorted (value, mass) atoms, masses > 0.

    Values and masses are exact rationals wherever the construction allows;
    mpf masses appear only for irrational growth rates.
    """
    __slots__ = ("atoms", "_real")

    def __init__(self, atoms):
        for _, m in atoms:
            if m < 0:
                raise ValueError("negative mass")
        vals = [v for v, _ in atoms]
        if sorted(vals) != vals or len(set(vals)) != len(vals):
            raise ValueError("atoms must be sorted by value and distinct")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_real", {})

    @classmethod
    def from_dict(cls, d):
        items = sorted(((v, m) for v, m in d.items() if m != 0), key=lambda t: t[0])
        return cls(tuple(items))

    @property
    def support(self):
        return tuple(v for v, _ in self.atoms)

    def total_mass(self):
        return sum((m for _, m in self.atoms), Fraction(0))

    def is_probability(self):
        return self.total_mass() == 1

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

    def real_atoms(self, precision=128):
        """The atoms as (value, mass) mpf pairs at precision + 16 bits,
        converted once per precision and shared by every transform."""
        if precision not in self._real:
            import mpmath as mp

            with mp.workprec(precision + 16):
                self._real[precision] = tuple((to_mpf(v), to_mpf(m)) for v, m in self.atoms)
        return self._real[precision]


class WeightedAdditive(Record, eq=False):
    """Per-length weight classes of a strongly additive statistic.

    primes is the P table (index 0 unused); classes[ell] lists (count,
    weight) pairs whose counts partition P_ell. A distinct prime orbit
    from a class contributes its weight once, regardless of multiplicity.
    """
    __slots__ = ("primes", "classes")

    def __init__(self, primes, classes):
        if len(primes) != len(classes):
            raise ValueError("primes and classes tables must align")
        for ell in range(1, len(primes)):
            total = 0
            for count, weight in classes[ell]:
                if count < 0:
                    raise ValueError(f"negative class count at ell={ell}")
                if not isinstance(weight, Fraction):
                    raise ValueError("weights must be rational")
                total += count
            if total != primes[ell]:
                raise ValueError(f"class counts at ell={ell} sum to {total}, expected P={primes[ell]}")
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "classes", classes)

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


class BivariateCensus(Record, eq=False):
    """Exact joint counts: rows[n] maps an integer key to the number of
    orbits of total length n <= X whose statistic equals key / D."""
    __slots__ = ("X", "D", "rows")

    def __init__(self, X, D, rows):
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "rows", rows)

    @property
    def values(self):
        """Distinct values, ascending: read by the benchmark's tracer until
        ROADMAP item 1 moves its counters into the library."""
        keys = sorted({key for row in self.rows for key in row})
        return tuple(Fraction(key, self.D) for key in keys)

    @property
    def cells(self):
        """The rows as {(n, key): count}: read by the benchmark's tracer
        until ROADMAP item 1 moves its counters into the library."""
        return {(n, key): c for n, row in enumerate(self.rows) for key, c in row.items()}


# The widest slot, in bits, at which packed rows still beat keyed dicts: every
# big-integer step touches each slot, however few bits its count needs. On
# FF(q) for q = 16 to 1024 packing ran at least 1.13x faster up to S = 674,
# and it lost from S = 702 bits (q = 1024) to 962 bits (q = 16).
_PACKED_SLOT_BITS = 640


def joint_census(g, X, census):
    """Exact bivariate census of (length, statistic) up to length X.

    Multiplies the per-class factors (1 + u_w z^ell/(1-z^ell))^count:
    using d >= 1 distinct primes of a class (count available) with total
    multiplicity k >= d at length ell contributes multiplicity
    C(count, d) C(k-1, d-1) at z-degree ell*k and statistic d*w.

    Statistic values are kept as integer keys: every weight is scaled by D,
    the lcm of the weight denominators over the classes with count > 0, so
    a key is D times its value. The classes go in by kernels.two_adic_product:
    a class of length ell = 2^j * odd runs as one of length odd on the rows
    of level j, lengths 0..X >> j in z^(2^j), since its factor terms
    depend only on (ell, count, weight). Each class updates its level's
    rows in place, lengths descending (a row is read before any lower row
    writes into it), and stops at the first factor degree that overshoots
    the level. A count statistic, whose live classes carry at most one nonzero
    weight, packs each row into one integer (_packed_rows) when its slot
    width is at most _PACKED_SLOT_BITS; any other statistic keeps one dict
    per row (_keyed_rows). Both give the same rows. Each row's total over
    statistic values is checked against the census's orbit counts. The
    census keeps the result, and every later call with the same X and
    weight classes up to X returns it: do not mutate its rows.
    """
    if g.X < X:
        raise ValueError("weight classes do not cover the requested range")
    if X > census.X_max:
        raise ValueError("X beyond census")
    for ell in range(1, X + 1):
        if g.primes[ell] != census.primes[ell]:
            raise ValueError(f"class counts at ell={ell} inconsistent with census")
    kept = (X, g.classes[: X + 1])
    if kept in census.joint_censuses:
        return census.joint_censuses[kept]
    live = [(ell, count, weight) for ell in range(1, X + 1)
            for count, weight in g.classes[ell] if count]
    D = lcm(*(weight.denominator for _, _, weight in live))
    S = _slot_bits(census.sigma, X)
    if len({weight for _, _, weight in live if weight}) <= 1 and S <= _PACKED_SLOT_BITS:
        rows = _packed_rows(live, X, D, S)
    else:
        rows = _keyed_rows(live, X, D)
    for n in range(X + 1):
        have = sum(rows[n].values())
        if have != census.totals[n]:
            raise AssertionError(f"marginal mismatch at n={n}: {have} != {census.totals[n]}")
    bc = BivariateCensus(X=X, D=D, rows=tuple(rows))
    census.joint_censuses[kept] = bc
    return bc


def _factor_terms(ell, count, weight, X):
    """(degree, distinct primes d, multiplicity) of one class's factor up
    to degree X, degree ascending. A zero-weight class moves no statistic,
    so its terms of one degree merge into the Euler factor's
    sum_d C(count, d) C(k-1, d-1) = C(count+k-1, k), counted at d = 0."""
    if not weight:
        return [(ell * k, 0, comb(count + k - 1, k)) for k in range(1, X // ell + 1)]
    return [
        (ell * k, d, comb(count, d) * comb(k - 1, d - 1))
        for k in range(1, X // ell + 1)
        for d in range(1, min(k, count) + 1)
    ]


def _keyed_rows(live, X, D):
    """The rows as {statistic key: count} dicts, for any weights."""

    def multiply(rows, ell, count, weight, top):
        key = weight.numerator * (D // weight.denominator)
        factor = [(deg, d * key, mult) for deg, d, mult in _factor_terms(ell, count, weight, top)]
        for n in range(top - ell, -1, -1):
            row = rows[n]
            if not row:
                continue
            for deg, step, mult in factor:
                if n + deg > top:
                    break
                target = rows[n + deg]
                get = target.get
                for v, c in row.items():
                    target[v + step] = get(v + step, 0) + c * mult
        return rows

    return two_adic_product(X, live, {0: 1}, dict, multiply)


def _slot_bits(sigma, X):
    """A slot width S with every count of length n <= X below 2^S.

    The product is exp(sum sigma_k z^k / k) with every sigma_k >= 0 (the
    Dold check the census passed). It is coefficientwise at most
    1/(1 - s z) with s = max_{k <= X} sigma_k^(1/k), so a count of length
    n is at most s^n <= s^X (the Dold width; the extra bit absorbs float
    rounding in log2). A count is also at most N(X), so at most
    e^log_count_bound, whose float slack is part of the bound. S is the
    smaller width: Dold is the tighter on FF(q), E(p,n) and GA, the
    saddle bound on GM. Both come from sigma, never from the totals the
    rows are checked against: a wrong total cannot narrow the slots.
    """
    top = max((log2(sigma[k]) / k for k in range(1, X + 1) if sigma[k]), default=0.0)
    return min(floor(X * top) + 2, floor(log_count_bound(sigma, X) / log(2)) + 1)


def _packed_rows(live, X, D, S):
    """The rows of a count statistic (at most one nonzero weight among the
    live classes), built as one integer per row: sum_d c_(n,d) 2^(S d) over
    d, the number of distinct primes of nonzero weight. A factor term adds
    (row * mult) << (d S), shift 0 for a zero-weight class. S from
    _slot_bits keeps every slot below 2^S, so no slot carries into the
    next; each row is then unpacked into {d * key: count}."""

    def multiply(rows, ell, count, weight, top):
        factor = [(deg, d * S, mult) for deg, d, mult in _factor_terms(ell, count, weight, top)]
        for n in range(top - ell, -1, -1):
            row = rows[n]
            if not row:
                continue
            for deg, shift, mult in factor:
                if n + deg > top:
                    break
                rows[n + deg] += (row * mult) << shift
        return rows

    rows = two_adic_product(X, live, 1, int, multiply)
    key = next((weight.numerator * (D // weight.denominator) for _, _, weight in live if weight), 0)
    mask = (1 << S) - 1
    unpacked = []
    for row in rows:
        cells = {}
        d = 0
        while row:
            if row & mask:
                cells[d * key] = row & mask
            row >>= S
            d += 1
        unpacked.append(cells)
    return unpacked


def w_pmf(bc, X=None):
    """Exact PMF of the statistic under the uniform measure on orbits of
    total length <= X (empty orbit included, statistic 0)."""
    X = bc.X if X is None else X
    if X > bc.X or X < 0:
        raise ValueError("X outside census")
    counts = {}
    for row in bc.rows[: X + 1]:
        for key, c in row.items():
            counts[key] = counts.get(key, 0) + c
    # joint_census checked each row's sum against the census's N_n
    denom = sum(counts.values())
    atoms = {Fraction(key, bc.D): Fraction(c, denom) for key, c in counts.items()}
    pmf = DiscreteMeasure.from_dict(atoms)
    if not pmf.is_probability():
        raise AssertionError("PMF fails to normalize (internal error)")
    return pmf


def expected_w(census, X):
    """E[W(X)] two independent ways: the prime-sum identity
    sum_ell P_ell N(X-ell)/N(X) and the mean of the exact PMF of the
    unit-weight joint census the census keeps. Returns (lemma_value,
    pmf_value) after asserting exact equality.
    """
    if X < 0 or X > census.X_max:
        raise ValueError("X outside census")
    acc = Fraction(sum(census.primes[ell] * census.count_orbits(X - ell) for ell in range(1, X + 1)),
                   census.count_orbits(X))
    via_pmf = w_pmf(joint_census(unit_weights(census), X, census=census), X).mean()
    if acc != via_pmf:
        raise AssertionError(
            f"internal-consistency error: prime-sum mean {acc} != PMF mean {via_pmf}"
        )
    return acc, via_pmf


def rho_measure(g, census, X, precision=128):
    """The prime-orbit measure rho_X: an atom at each distinct weight w
    with mass (sum over ell of count_{ell,w} Lambda^(-ell)) / M(X).

    Exact rationals when the growth rate is exact; masses always sum to 1.
    legendre_rate takes its transform.
    """
    if X < 1 or X > census.X_max:
        raise ValueError("X outside census")
    if g.X < X:
        raise ValueError("weight classes do not cover the requested range")
    exact = census.lam.exact
    import mpmath as mp

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
