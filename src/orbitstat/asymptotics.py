"""Cesaro means, the growth law's constants, and the Lambda = 1 branch.

The normalized sequence b_k = sigma_k / Lambda^k has a Cesaro mean B, and
the cumulative orbit count obeys N(X) = (C/Gamma(B)) Lambda^X X^(B-1)
(1 + O(1/log X)) while the Mertens sum grows like B log X. growth_law
gives B and Lambda by one route per kind of source: empirical partial sums
for raw tables, exact class sums for every product form, the rational-zeta
Lambda = 1 case included. constants_for adds C: a closed form where a
builtin name or growth rate 1 supplies one, a fit against the census
otherwise.
"""

import math
from fractions import Fraction
from math import gcd, lcm

import mpmath as mp

from orbitstat import systems
from orbitstat.numtheory import MAX_PERIOD, PeriodicSequence, Record, divisors, is_prime, lte_params, minimal_period, p_valuation
from orbitstat.census import build_census, prime_counts
from orbitstat.polyops import to_mpf


class TruncatedSum(Record):
    """A sum evaluated exactly up to an explicitly bounded tail.

    value is an exact rational partial sum; tail_bound is an upper bound
    (mpf, possibly with a huge negative exponent) on the dropped mass.
    tail_bound = 0 means the value is exact.
    """
    __slots__ = ("value", "tail_bound")

    def __init__(self, value, tail_bound):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "tail_bound", tail_bound)  # mpf or Fraction

    @property
    def exact(self):
        return self.tail_bound == 0

    def as_mpf(self, precision=128):
        with mp.workprec(precision + 16):
            return to_mpf(self.value)

    def __float__(self):
        return float(self.value)


class AsymptoticConstants(Record):
    """(B, C, Lambda) with provenance per field; growth_law leaves C None.

    Provenance tags: exact-closed-form | series-truncation | empirical-fit.
    tail_bounds carries truncation bounds for series-truncation entries.
    """
    __slots__ = ("B", "C", "lam", "provenance", "tail_bounds", "notes")

    def __init__(self, B, C, lam, provenance, tail_bounds=None, notes=()):
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "tail_bounds", {} if tail_bounds is None else tail_bounds)
        object.__setattr__(self, "notes", notes)


# ---------------------------------------------------------------------------
# empirical Cesaro mean


def cesaro_empirical(source, lam, X, precision=128):
    """Partial Cesaro mean (1/X) sum_{k<=X} sigma_k / lam^k from
    GrowthRate.inverse_power_sums.

    Rational lam accumulates exactly (one rounding at the end); otherwise
    mpf accumulation at elevated working precision. A growth rate <= 0 is
    refused.
    """
    if X < 1:
        raise ValueError("X >= 1 required")
    with mp.workprec(precision + 32):
        if not isinstance(lam, systems.GrowthRate):
            exact = Fraction(lam) if isinstance(lam, (int, Fraction)) else None
            lam = systems.GrowthRate(value=to_mpf(lam), exact=exact)
        if not lam.value > 0:
            raise ValueError(f"growth rate must be positive, got {lam.value}")
        total = lam.inverse_power_sums(systems.sigma_table(source, X), precision)[X]
        if lam.exact is not None:
            return +to_mpf(Fraction(total, lam.exact.numerator**X * X))
        return +(total / X)


# ---------------------------------------------------------------------------
# exact class sums for product-form sigma

# Exponents above this threshold produce terms (and tails) below 2^-cap;
# they are truncated and accounted for in the tail bound. This is the one
# truncation rule of the class sums: with t_a >= 1 every prime passes it by
# j = 11.
_EXPONENT_CAP = 2048


def _local_factor(p, m_p, w_forced, s_a, t_a):
    """G_p for one residue class: sum over j of density * p^(-j s_a - t_a p^j).

    Returns (value: Fraction, tail_bound: mpf). w_forced is the forced
    valuation when the class residue pins v_p(k) below m_p, else None
    (sum over j >= m_p with conditional densities p^(-j)(1 - 1/p)).
    """
    if w_forced is not None:
        exponent = m_p + w_forced * s_a + t_a * p**w_forced
        if exponent > _EXPONENT_CAP:
            return Fraction(0), mp.mpf(p) ** -exponent
        return Fraction(1, p**exponent), mp.mpf(0)
    if t_a == 0:
        # geometric: (1 - 1/p) sum_{j>=m_p} p^(-j(1+s_a)); past the cap the
        # terms j >= max(m_p, 1) drop, at most twice the first of them
        first = max(m_p, 1) * (1 + s_a)
        if first > _EXPONENT_CAP:
            return Fraction(p - 1, p) if m_p == 0 else Fraction(0), 2 * mp.mpf(p) ** -first
        q = Fraction(1, p ** (1 + s_a))
        val = (1 - Fraction(1, p)) * q**m_p / (1 - q)
        return val, mp.mpf(0)
    acc = Fraction(0)
    j = m_p
    while True:
        # density p^(-j)(1 - 1/p) times the class value p^(-j s_a - t_a p^j)
        exponent = j + j * s_a + t_a * p**j
        if exponent > _EXPONENT_CAP:
            break
        acc += (1 - Fraction(1, p)) * Fraction(1, p**exponent)
        j += 1
    # dropped mass: each value factor is <= p^(-t_a p^j), and the densities
    # over j' >= j sum to p^(-j)
    tail = mp.mpf(p) ** (-(j + t_a * p**j))
    return acc, tail


def fad_class_mean(spec, precision=128):
    """Density-weighted class sum L(0) of b_k = r_k prod p-local factors.

    Classes are the residues a mod L (L = lcm of every sequence's shortest
    period) refined by v_p(k) = j for each p, with exact CRT densities. The
    value is an exact rational, plus a bounded tail when some t > 0. The
    walk over L is refused when L exceeds both MAX_PERIOD and the longest
    of those periods, so its cost stays linear in the spec.
    """
    sequences = [spec.r] + [seq for fp in spec.primes for seq in (fp.s, fp.t)]
    periods = [minimal_period(seq.values) for seq in sequences]
    L0 = lcm(*periods)
    if L0 > max(MAX_PERIOD, *periods):
        raise ValueError(
            f"{L0} residue classes, the lcm of the shortest periods: more than the period "
            f"limit 2^{MAX_PERIOD.bit_length() - 1} and more than the longest period"
        )
    # coprime part of L0 relative to the prime set
    Lp = L0
    mps = {}
    for fp in spec.primes:
        v = p_valuation(L0, fp.p)
        mps[fp.p] = v
        Lp //= fp.p**v
    # residues with the same r_a and the same local factors make one term:
    # count them, then evaluate each distinct term once
    counts = {}
    for a in range(L0):
        k0 = a if a >= 1 else L0
        factors = []
        for fp in spec.primes:
            m_p = mps[fp.p]
            if m_p > 0 and a % (fp.p**m_p) != 0:
                # the residue pins v_p(k) below m_p
                w_forced = p_valuation(a, fp.p)
            else:
                w_forced = None
            factors.append((fp.p, m_p, w_forced, int(fp.s.at(k0)), int(fp.t.at(k0))))
        key = (spec.r.at(k0), tuple(factors))
        counts[key] = counts.get(key, 0) + 1
    total = Fraction(0)
    tail_total = mp.mpf(0)
    with mp.workprec(precision + 32):
        for (r_a, factors), count in counts.items():
            weight = Fraction(count, Lp) * r_a
            locals_val = Fraction(1)
            locals_tail = mp.mpf(0)
            for factor in factors:
                g_val, g_tail = _local_factor(*factor)
                # product tail: every factor is <= 1, so dropped mass adds
                locals_tail = locals_tail + g_tail
                locals_val *= g_val
            tail_total += to_mpf(weight) * locals_tail
            total += weight * locals_val
        return TruncatedSum(total, +tail_total)


def cesaro_exact_fad(spec, spectrum=None, precision=128):
    """Exact Cesaro mean of sigma_k/Lambda^k for a product-form sigma.

    The oscillatory factor prod_j (2 - 2 cos k theta_j) from m unit-circle
    eigenvalue pairs has Cesaro mean 2^m exactly when the only integer
    relation among 1, theta_1/pi, ..., theta_m/pi is the trivial one. Then
    B = 2^m * L(0), with L(0) the exact class mean of fad_class_mean and
    _EXPONENT_CAP its one truncation rule; callers read .tail_bound.

    m <= 1 is certified: once cyclotomic factors are excluded, theta/pi is
    irrational. m >= 2 is refused, because the mean then depends on the
    exact dependence relations among the angles (repeated angles, or e.g.
    theta, 2 theta and 2 pi - 3 theta, give 6 where 2^3 = 8 would be
    returned). Rational angles (root of unity eigenvalues) must be folded
    into the periodic factor r first.
    """
    if spectrum is None:
        spectrum = systems.spectrum_for(systems.SigmaSource(kind="fad", fad=spec), precision)
    if spectrum.contains_root_of_unity:
        raise ValueError(
            "an eigenvalue angle lies in pi*Q (root of unity): fold the "
            "resulting periodic determinant factor into r and retry"
        )
    if spectrum.m >= 2:
        raise ValueError(
            f"{spectrum.m} unit-circle eigenvalue pairs: their angles may be "
            "repeated or rationally dependent, and no evaluation is possible "
            "without the exact dependence relations"
        )
    base = fad_class_mean(spec, precision=precision)
    scale = 2**spectrum.m
    return TruncatedSum(base.value * scale, base.tail_bound * scale)


# ---------------------------------------------------------------------------
# closed forms for the worked examples


def qp_product(x, p, tol=None, precision=128):
    """Q_p(x) = prod_{j>=0} ((x^(p^j)+1)/(x^(p^j)-1))^(1/p^(2j)) for x > 1.

    Each factor's log is at most 2/(p^(2j)(x^(p^j)-1)); terms are taken
    until that bound drops below tol.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    with mp.workprec(precision + 32):
        x = to_mpf(x)
        if x <= 1:
            raise ValueError("x > 1 required (factor at j=0 diverges)")
        if tol is None:
            tol = mp.mpf(2) ** (-(precision + 8))
        acc = mp.mpf(1)
        j = 0
        while True:
            y = x ** (p**j)
            acc *= ((y + 1) / (y - 1)) ** (mp.mpf(1) / p ** (2 * j))
            bound = 2 / (p ** (2 * j) * (y - 1))
            if bound < tol:
                break
            j += 1
            if j > 64:
                raise ValueError("tolerance unreachable")
        return +acc


def ca_log_weighted_sum(p, t):
    """((p-1)/period) sum_a sum_j j p^(-1-j-t_a p^j) exactly, up to a
    bounded tail: the companion sum A entering the constant C = p^(1 + B - A)
    of the automaton example. Terms beyond the exponent cap are dropped
    into the tail bound.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    t = t if isinstance(t, PeriodicSequence) else PeriodicSequence(tuple(t))
    if not t.is_integral():
        raise ValueError("t must be integer-valued")
    w = t.period
    if gcd(w, p) != 1:
        raise ValueError("period of t must be coprime to p")
    total = Fraction(0)
    tail = mp.mpf(0)
    for a in range(1, w + 1):
        t_a = int(t.at(a))
        if t_a == 0:
            total += Fraction(1, (p - 1) ** 2)  # sum_j j p^(-1-j)
            continue
        j = 0
        while True:
            exponent = 1 + j + t_a * p**j
            if exponent > _EXPONENT_CAP:
                # dropped mass: sum_{j'>=j} j' p^(-1-j'-t_a p^j') is under
                # p^(-j-t_a p^j) * 4 (j+1)
                tail += mp.mpf(p) ** (-(j + t_a * p**j)) * (4 * (j + 1))
                break
            total += Fraction(j, p**exponent)
            j += 1
    scale = Fraction(p - 1, w)
    return TruncatedSum(scale * total, +(tail * mp.mpf(p - 1) / w))


def _elliptic_c(p, n, precision):
    """(C, its provenance, its tail bounds) for E(p, n): with d the order of
    n mod p and e = v_p(n^d - 1), the five-factor product involving
    Q_p(n^d); n^2/(n+1)^2 exactly when p divides n."""
    if n % p == 0:
        return Fraction(n * n, (n + 1) * (n + 1)), "exact-closed-form", {}
    d, e = lte_params(n, p)
    with mp.workprec(precision + 32):
        def powf(base, expo):
            return to_mpf(base) ** to_mpf(expo)

        qtol = mp.mpf(2) ** (-(precision + 8))
        y = mp.mpf(n) ** d  # n^d itself can run to millions of bits
        q_val = qp_product(y, p, tol=qtol, precision=precision + 16)
        f1 = powf(Fraction(d), Fraction(1, d) * (1 - Fraction(1, p ** (e - 1) * (p + 1))))
        f2 = powf(Fraction(p), Fraction(p ** max(2 - e, 0), d * p ** max(e - 2, 0) * (p - 1) * (p + 1) ** 2))
        f3 = ((y + 1) / (y - 1)) ** to_mpf(Fraction(1, d) * (1 - Fraction(1, p ** (e - 1))))
        f4 = Fraction(n, n + 1) ** 2
        f5 = q_val ** (mp.mpf(p - 1) / (d * p**e))
        C = +(f1 * f2 * f3 * to_mpf(f4) * f5)
        cbound = +(C * qtol)  # relative Q tail propagates linearly in log C
    return C, "series-truncation", {"C": cbound}


# ---------------------------------------------------------------------------
# Lambda = 1 (rational zeta) branch


class Lambda1Report(Record):
    __slots__ = ("B", "primes", "leading")

    def __init__(self, B, primes, leading):
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "primes", primes)  # ell -> P_ell over the divisors ell of the minimal period
        object.__setattr__(self, "leading", leading)  # N(X) ~ leading * X^B; leading = C / Gamma(B+1) = C / B!

    @property
    def C(self):
        return self.leading * math.factorial(self.B)


def lambda1_analysis(period):
    """Analyze a periodic sigma (growth rate 1, rational zeta function)
    from one period sigma_1..sigma_w of it.

    The minimal period is the smallest divisor of w whose repeats generate
    the given period. Checks that the period average B is a positive
    integer, inverts to prime counts supported on divisors of the period,
    and returns the leading coefficient of N(X) ~ leading X^B, namely
    (1/B!) prod ell^(-P_ell).
    """
    sigma = [int(v) for v in period]
    X = len(sigma)
    if X < 1:
        raise ValueError("table too short")
    varpi = minimal_period(sigma)
    total = sum(sigma[:varpi])
    B, rem = divmod(total, varpi)
    if rem or B <= 0:
        raise ValueError(f"period average {Fraction(total, varpi)} is not a positive integer")
    P = prime_counts([0] + sigma)
    for ell in range(1, X + 1):
        if varpi % ell != 0 and P[ell] != 0:
            raise ValueError(f"nonzero prime count at ell={ell} not dividing the period")
    supported = {ell: P[ell] for ell in divisors(varpi)}
    leading = Fraction(1, math.factorial(B))
    for ell, count in supported.items():
        leading *= Fraction(1, ell**count)
    return Lambda1Report(B=B, primes=supported, leading=leading)


# ---------------------------------------------------------------------------
# B and Lambda, then C


def _growth_rate_one(source):
    """lambda1_analysis on one period of r, for a product form whose
    spectrum gives growth rate exactly 1.

    Such a matrix factor is nilpotent (an integer matrix with no eigenvalue
    outside the unit circle and no root of unity has only the eigenvalue
    0), so |det(A^k - 1)| = 1 and sigma_k = r_k times the p-adic factors.
    A nonzero p-adic exponent is refused: with c = 1 nothing offsets the
    denominator p^(v s + t p^v), which grows with v = v_p(k).
    """
    spec = source.fad
    if any(v for fp in spec.primes for v in fp.s.values + fp.t.values):
        raise ValueError(
            "growth rate 1 with a nonzero p-adic exponent: sigma cannot stay "
            "integral as v_p(k) grows"
        )
    return lambda1_analysis(systems.sigma_table(source, spec.r.period)[1:])


def growth_law(source, precision=128, cen=None):
    """AsymptoticConstants with B and Lambda, their provenance and B's tail
    bound, and C = None: all that the large-deviation speed B log X reads.

    A raw table gets an empirical B against the growth rate estimated by its
    census (cen, or one built to the table's length). Every product form,
    named or not, gets Lambda from its spectrum, as an exact Fraction
    whenever the spectrum's rate is exact, and B from cesaro_exact_fad. At
    growth rate 1 that B is the class mean of r, the period average of
    sigma.
    """
    if source.kind == "table":
        if cen is None:
            cen = build_census(source, len(source.table), precision=precision)
        return AsymptoticConstants(
            B=cesaro_empirical(source, cen.lam, cen.X_max, precision),
            C=None,
            lam=cen.lam.value,
            provenance={"B": "empirical-fit", "lambda": "empirical-fit"},
            notes=(
                "raw-table constants are finite-window estimates against an "
                "estimated growth rate; all fields are low-confidence",
            ),
        )
    # a census of this source at this precision already holds its root split
    if cen is not None and cen.source is source and cen.precision == precision:
        spectrum = cen.spectrum
    else:
        spectrum = systems.spectrum_for(source, precision)
    B = cesaro_exact_fad(source.fad, spectrum=spectrum, precision=precision)
    rate = spectrum.rate
    exact = "exact-closed-form"
    return AsymptoticConstants(
        B=B.value,
        C=None,
        lam=spectrum.lam if rate.exact is None else rate.exact,
        provenance={
            "B": exact if B.exact else "series-truncation",
            "lambda": "series-truncation" if rate.exact is None else exact,
        },
        tail_bounds={} if B.exact else {"B": B.tail_bound},
    )


def _fitted_c(cen, B, lam, precision):
    """C read off the growth law N(X) ~ (C/Gamma(B)) Lambda^X X^(B-1) with B
    and Lambda fixed: Gamma(B) times the ratio N(X) / (Lambda^X X^(B-1)) at
    the top of the census range. One point, not least squares, which would
    only launder the O(1/log X) error term into arbitrary weights; it is
    honest about being low-confidence."""
    if B <= 0:
        raise ValueError("B > 0 required by the growth law")
    X = cen.X_max
    with mp.workprec(precision + 32):
        lam = to_mpf(lam)
        Bm = to_mpf(B)
        gB = mp.gamma(Bm)
        scale = lam**X * mp.mpf(X) ** (Bm - 1)
        ratio = +(mp.mpf(cen.count_orbits(X)) / scale)
        return +(ratio * gB)


def constants_for(source, precision=128, cen=None):
    """growth_law's B and Lambda, plus C with its provenance.

    Builtin names choose only C: q/(q-1) for FF, the five-factor product
    for E, 2^(1 + B - A) for GA. A product form of growth rate exactly 1
    reads C from one period of r; every other source, GM, unnamed product
    forms and raw tables among them, gets C fitted against its census.
    """
    if source.kind == "table" and cen is None:
        cen = build_census(source, len(source.table), precision=precision)
    law = growth_law(source, precision, cen)
    how, bounds, notes = "exact-closed-form", {}, ()
    if source.name == "FF":
        q = source.param("q")
        C = Fraction(q, q - 1)
        notes = (
            "C = q/(q-1) is the census truth: ratio(X) = (q^(X+1)-1)/q^X; "
            "the often-quoted C = 1 for this example disagrees with the "
            "exact census and is not reported",
        )
    elif source.name == "E":
        C, how, bounds = _elliptic_c(source.param("p"), source.param("n"), precision)
    elif source.name == "GA":
        A = ca_log_weighted_sum(2, (1,))
        with mp.workprec(precision + 32):
            C = +(mp.mpf(2) ** to_mpf(law.B - A.value + 1))
        how, bounds = "series-truncation", {"A": A.tail_bound}
        notes = ("companion sum A = %s" % mp.nstr(A.as_mpf(precision), 12),)
    elif law.lam == 1 and source.fad is not None:
        report = _growth_rate_one(source)
        C = report.C
        notes = (
            "growth rate 1: the growth law reads N(X) ~ (C/Gamma(B+1)) X^B "
            "= leading * X^B with leading = %s" % report.leading,
        )
    else:
        if cen is None:
            cen = build_census(source, 60, precision=precision)
        C, how = _fitted_c(cen, law.B, law.lam, precision), "empirical-fit"
        if source.fad is not None:
            notes = ("C fitted at X = %d; the growth law's 1/log X error makes this low-confidence" % cen.X_max,)
    return AsymptoticConstants(
        B=law.B,
        C=C,
        lam=law.lam,
        provenance={"B": law.provenance["B"], "C": how, "lambda": law.provenance["lambda"]},
        tail_bounds={**law.tail_bounds, **bounds},
        notes=law.notes + notes,
    )
