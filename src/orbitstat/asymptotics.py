"""Cesaro means, asymptotic constants, and growth-law predictions.

The normalized sequence b_k = sigma_k / Lambda^k has a Cesaro mean B, and
the cumulative orbit count obeys N(X) = (C/Gamma(B)) Lambda^X X^(B-1)
(1 + O(1/log X)) while the Mertens sum grows like B log X. This module
computes B three ways (empirical partial sums, exact class sums for
product-form sigma, closed forms for the worked examples), assembles C
where a closed form exists, handles the rational-zeta Lambda = 1 branch,
and fits census data against the growth law.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

import mpmath as mp

from orbitstat import systems
from orbitstat.numtheory import PeriodicSequence, divisors, is_prime, lte_params, p_valuation
from orbitstat.census import build_census, prime_counts
from orbitstat.polyops import to_mpf


def gamma_value(x, precision=128):
    """Gamma(x) at the requested binary precision (relative error well
    under 1e-10 on (0, 10]; checked by tests against Gamma(1) and
    Gamma(1/2)^2 = pi)."""
    with mp.workprec(precision + 16):
        return +mp.gamma(to_mpf(x))


@dataclass(frozen=True)
class TruncatedSum:
    """A sum evaluated exactly up to an explicitly bounded tail.

    value is an exact rational partial sum; tail_bound is an upper bound
    (mpf, possibly with a huge negative exponent) on the dropped mass.
    tail_bound = 0 means the value is exact.
    """

    value: Fraction
    tail_bound: object  # mpf or Fraction

    @property
    def exact(self):
        return self.tail_bound == 0

    def as_mpf(self, precision=128):
        with mp.workprec(precision + 16):
            return to_mpf(self.value)

    def __float__(self):
        return float(self.value)


@dataclass(frozen=True)
class AsymptoticConstants:
    """(B, C, Lambda) with provenance per field.

    Provenance tags: exact-closed-form | series-truncation | empirical-fit.
    tail_bounds carries truncation bounds for series-truncation entries.
    """

    B: object
    C: object
    lam: object
    provenance: dict
    tail_bounds: dict = field(default_factory=dict)
    notes: tuple = ()


# ---------------------------------------------------------------------------
# empirical Cesaro mean


def cesaro_empirical(source, lam, X, precision=128):
    """Partial Cesaro mean (1/X) sum_{k<=X} sigma_k / lam^k.

    Rational lam accumulates exactly (one rounding at the end); otherwise
    mpf accumulation at elevated working precision.
    """
    if X < 1:
        raise ValueError("X >= 1 required")
    if isinstance(lam, systems.GrowthRate):
        lam = lam.exact if lam.exact is not None else lam.value
    sigma = systems.sigma_table(source, X)
    with mp.workprec(precision + 32):
        if isinstance(lam, (int, Fraction)):
            lam = Fraction(lam)
            num, den = lam.numerator, lam.denominator
            # T = sum sigma_k den^k num^(X-k), built as T <- T*num + sigma_k den^k
            total = 0
            dpow = 1
            for k in range(1, X + 1):
                dpow *= den
                total = total * num + sigma[k] * dpow
            val = Fraction(total, num**X * X)
            return +to_mpf(val)
        lam = mp.mpf(lam)
        acc = mp.mpf(0)
        power = mp.mpf(1)
        for k in range(1, X + 1):
            power /= lam
            if sigma[k]:
                acc += sigma[k] * power
        return +(acc / X)


def log_abel_mean(source, lam, u, K, precision=128):
    """-f(u)/log(1-u) with f(u) = sum_{k<=K} (sigma_k/lam^k) u^k / k.

    A logarithmic-summability probe: as u -> 1 (with K large enough that
    the dropped tail is negligible) the value approaches the Cesaro mean.
    """
    if isinstance(lam, systems.GrowthRate):
        lam = lam.exact if lam.exact is not None else lam.value
    sigma = systems.sigma_table(source, K)
    with mp.workprec(precision + 32):
        u = mp.mpf(u)
        lam = to_mpf(lam)
        acc = mp.mpf(0)
        ratio = u / lam
        power = mp.mpf(1)
        for k in range(1, K + 1):
            power *= ratio
            if sigma[k]:
                acc += sigma[k] * power / k
        return +(-acc / mp.log(1 - u))


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
        val = Fraction(1, p**m_p) * Fraction(1, p ** (w_forced * s_a + t_a * p**w_forced))
        return val, mp.mpf(0)
    if t_a == 0:
        # geometric: (1 - 1/p) sum_{j>=m_p} p^(-j(1+s_a))
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

    Classes are the residues a mod L (L = lcm of all periods) refined by
    v_p(k) = j for each p, with exact CRT densities. The value is an exact
    rational, plus a bounded tail when some t > 0.
    """
    periods = [spec.r.period]
    for fp in spec.primes:
        periods.append(fp.s.period)
        periods.append(fp.t.period)
    L0 = lcm(*periods)
    # coprime part of L0 relative to the prime set
    Lp = L0
    mps = {}
    for fp in spec.primes:
        v, _ = p_valuation(L0, fp.p) if L0 % fp.p == 0 else (0, None)
        mps[fp.p] = v
        Lp //= fp.p**v
    total = Fraction(0)
    tail_total = mp.mpf(0)
    with mp.workprec(precision + 32):
        for a in range(L0):
            k0 = a if a >= 1 else L0
            r_a = spec.r.at(k0)
            weight = Fraction(1, Lp) * r_a
            locals_val = Fraction(1)
            locals_tail = mp.mpf(0)
            for fp in spec.primes:
                m_p = mps[fp.p]
                if m_p > 0 and a % (fp.p**m_p) != 0:
                    # the residue pins v_p(k) below m_p
                    w_forced = p_valuation(a, fp.p)[0]
                else:
                    w_forced = None
                g_val, g_tail = _local_factor(
                    fp.p, m_p, w_forced, int(fp.s.at(k0)), int(fp.t.at(k0))
                )
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
        spectrum = systems.spectrum_for(systems.fad_source(spec, validate=False), precision)
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


def elliptic_constants(p, n, precision=128):
    """(B, C) for sigma_k = (n^k - 1)^2 |n^k - 1|_p at an odd prime p.

    With d the order of n mod p and e = v_p(n^d - 1):
      B = 1 - (1/d)(1 - p/(p^e (p+1)))
    and C is the five-factor product involving Q_p(n^d). When p divides n
    the p-adic factor is trivial and (B, C) = (1, n^2/(n+1)^2) exactly.
    """
    if p == 2:
        raise ValueError("p = 2 unsupported (exponent lifting differs in characteristic 2)")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 2:
        raise ValueError("n >= 2 required")
    lam = Fraction(n * n)
    if n % p == 0:
        return AsymptoticConstants(
            B=Fraction(1),
            C=Fraction(n * n, (n + 1) * (n + 1)),
            lam=lam,
            provenance={"B": "exact-closed-form", "C": "exact-closed-form", "lambda": "exact-closed-form"},
        )
    d, e = lte_params(n, p)
    B = 1 - Fraction(1, d) * (1 - Fraction(p, p**e * (p + 1)))
    with mp.workprec(precision + 32):
        def powf(base, expo):
            return to_mpf(base) ** to_mpf(expo)

        qtol = mp.mpf(2) ** (-(precision + 8))
        q_val = qp_product(Fraction(n**d), p, tol=qtol, precision=precision + 16)
        f1 = powf(Fraction(d), Fraction(1, d) * (1 - Fraction(1, p ** (e - 1) * (p + 1))))
        f2 = powf(Fraction(p), Fraction(p ** max(2 - e, 0), d * p ** max(e - 2, 0) * (p - 1) * (p + 1) ** 2))
        f3 = powf(Fraction(n**d + 1, n**d - 1), Fraction(1, d) * (1 - Fraction(1, p ** (e - 1))))
        f4 = Fraction(n, n + 1) ** 2
        f5 = q_val ** (mp.mpf(p - 1) / (d * p**e))
        C = +(f1 * f2 * f3 * to_mpf(f4) * f5)
        cbound = +(C * qtol)  # relative Q tail propagates linearly in log C
    return AsymptoticConstants(
        B=B,
        C=C,
        lam=lam,
        provenance={"B": "exact-closed-form", "C": "series-truncation", "lambda": "exact-closed-form"},
        tail_bounds={"C": cbound},
    )


def _ca_double_sum(p, t, term_weight):
    """((p-1)/period) sum_a sum_j term_weight(j) p^(-1-j-t_a p^j) exactly.

    Weighted variant of the cellular-automaton Cesaro sum; term_weight maps
    j to a non-negative rational. Terms beyond the exponent cap are dropped
    into the tail bound.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    t = t if isinstance(t, PeriodicSequence) else PeriodicSequence(tuple(t))
    if not t.is_integral(t.period):
        raise ValueError("t must be integer-valued")
    w = t.period
    if gcd(w, p) != 1:
        raise ValueError("period of t must be coprime to p")
    total = Fraction(0)
    tail = mp.mpf(0)
    for a in range(1, w + 1):
        t_a = int(t.at(a))
        if t_a < 0:
            raise ValueError("t must be non-negative")
        if t_a == 0:
            if term_weight == "one":
                total += Fraction(1, p - 1)  # sum_j p^(-1-j)
            else:
                total += Fraction(1, (p - 1) ** 2)  # sum_j j p^(-1-j)
            continue
        j = 0
        while True:
            exponent = 1 + j + t_a * p**j
            if exponent > _EXPONENT_CAP:
                # dropped mass: sum_{j'>=j} w(j') p^(-1-j'-t_a p^j') with
                # w(j') in {1, j'} is under p^(-j-t_a p^j) * 4 (j+1)
                tail += mp.mpf(p) ** (-(j + t_a * p**j)) * (4 * (j + 1))
                break
            coef = Fraction(1) if term_weight == "one" else Fraction(j)
            total += coef * Fraction(1, p**exponent)
            j += 1
    scale = Fraction(p - 1, w)
    return TruncatedSum(scale * total, +(tail * mp.mpf(p - 1) / w))


def ca_cesaro(p, t):
    """Cesaro mean B = ((p-1)/period) sum_a sum_j p^(-1-j-t_a p^j).

    Exactly 1 when all t_a = 0 (the double sum telescopes); otherwise a
    rational partial sum with a geometric tail bound.
    """
    return _ca_double_sum(p, t, "one")


def ca_log_weighted_sum(p, t):
    """((p-1)/period) sum_a sum_j j p^(-1-j-t_a p^j); the companion sum A
    entering the constant C = p^(1 + B - A) of the automaton example."""
    return _ca_double_sum(p, t, "j")


def ga_constants(precision=128):
    """Constants for the additive-automaton example sigma_k = 2^(k - |k|_2^(-1)).

    B and the companion sum A are exponent-capped rational series; the
    growth constant is C = 2^(1 + B - A).
    """
    B = ca_cesaro(2, (1,))
    A = ca_log_weighted_sum(2, (1,))
    with mp.workprec(precision + 32):
        expo = B.value - A.value + 1
        C = +(mp.mpf(2) ** to_mpf(expo))
    return AsymptoticConstants(
        B=B.value,
        C=C,
        lam=Fraction(2),
        provenance={"B": "series-truncation", "C": "series-truncation", "lambda": "exact-closed-form"},
        tail_bounds={"B": B.tail_bound, "A": A.tail_bound},
        notes=("companion sum A = %s" % mp.nstr(A.as_mpf(precision), 12),),
    )


# ---------------------------------------------------------------------------
# Lambda = 1 (rational zeta) branch


@dataclass(frozen=True)
class Lambda1Report:
    varpi: int
    B: int
    primes: dict  # ell -> P_ell over ell | varpi
    leading: Fraction  # N(X) ~ leading * X^B; leading = C / Gamma(B+1) = C / B!

    @property
    def C(self):
        return self.leading * math.factorial(self.B)


def lambda1_analysis(sigma, declared_periodic=True):
    """Analyze a periodic sigma (growth rate 1, rational zeta function).

    The table is read as whole periods of a periodic sequence; the minimal
    period is the smallest divisor of the length generating the table, a
    proper sub-period counting only when confirmed by at least two full
    repeats. With declared_periodic=False the full length is not accepted
    on faith either, so an aperiodic prefix is rejected instead of being
    misread as one giant period. Checks that the period average B is a
    positive integer, inverts to prime counts supported on divisors of the
    period, and returns the leading coefficient of N(X) ~ leading X^B,
    namely (1/B!) prod ell^(-P_ell).
    """
    sigma = [int(v) for v in sigma]
    X = len(sigma)
    if X < 1:
        raise ValueError("table too short")
    varpi = None
    for d in sorted(divisors(X)):
        confirmed = 2 * d <= X or (d == X and declared_periodic)
        if confirmed and all(sigma[k] == sigma[k % d] for k in range(X)):
            varpi = d
            break
    if varpi is None:
        raise ValueError(
            "no period detected within the table; aperiodic growth-rate-1 "
            "sequences (irrational zeta) are unsupported"
        )
    total = sum(sigma[:varpi])
    B, rem = divmod(total, varpi)
    if rem or B <= 0:
        raise ValueError(f"period average {Fraction(total, varpi)} is not a positive integer")
    P = prime_counts([0] + sigma)
    for ell in range(1, X + 1):
        if varpi % ell != 0 and P[ell] != 0:
            raise ValueError(f"nonzero prime count at ell={ell} not dividing the period")
    supported = {ell: P[ell] for ell in divisors(varpi)}
    if sum(supported.values()) != B:
        raise ValueError("prime counts do not sum to the period average")
    leading = Fraction(1, math.factorial(B))
    for ell, count in supported.items():
        leading *= Fraction(1, ell**count)
    return Lambda1Report(varpi=varpi, B=B, primes=supported, leading=leading)


# ---------------------------------------------------------------------------
# growth-law fitting


@dataclass(frozen=True)
class FitReport:
    rows: tuple  # (X, predicted N(X) or None, ratio mpf)
    fitted: object  # mpf: ratio at the largest window point, estimates C/Gamma(B)
    fitted_C: object  # mpf: fitted * Gamma(B)
    gamma_B: object

    def drift(self):
        """|ratio - fitted| per row; diagnostic only."""
        return tuple(abs(r[2] - self.fitted) for r in self.rows)


def predict_and_fit(cen, constants, window, precision=128):
    """Compare census counts N(X) against (C/Gamma(B)) Lambda^X X^(B-1),
    with B, C and Lambda read from constants.

    ratio(X) = N(X) / (Lambda^X X^(B-1)); the fitted constant is the ratio
    at the largest window point (least squares would just launder the
    O(1/log X) error term into arbitrary weights; single-point fitting is
    honest about being low-confidence).
    """
    B = constants.B
    bf = float(B)
    if bf <= 0:
        raise ValueError("B > 0 required by the growth law")
    window = sorted(window)
    if window[0] < 1 or window[-1] > cen.X_max:
        raise ValueError("window outside census range")
    with mp.workprec(precision + 32):
        lam = to_mpf(constants.lam)
        Bm = to_mpf(B)
        gB = mp.gamma(Bm)
        Cm = None if constants.C is None else to_mpf(constants.C)
        rows = []
        for X in window:
            scale = lam**X * mp.mpf(X) ** (Bm - 1)
            ratio = +(mp.mpf(cen.count_orbits(X)) / scale)
            predicted = +(Cm / gB * scale) if Cm is not None else None
            rows.append((X, predicted, ratio))
        fitted = rows[-1][2]
        return FitReport(rows=tuple(rows), fitted=fitted, fitted_C=+(fitted * gB), gamma_B=+gB)


# ---------------------------------------------------------------------------
# per-source constants dispatch


def _fit_growth_law(cen, B, lam, precision):
    """predict_and_fit with B and Lambda fixed and C unknown, over the
    census range's thirds."""
    top = cen.X_max
    fit_window = (max(1, top // 3), max(2, 2 * top // 3), top)
    interim = AsymptoticConstants(B=B, C=None, lam=lam, provenance={})
    return predict_and_fit(cen, interim, fit_window, precision)


def constants_for(source, precision=128, cen=None):
    """AsymptoticConstants for any source, with honest provenance.

    Closed forms where they exist (FF, E, GA, periodic); exact class-sum B
    plus empirically fitted C for matrix sources (GM and general product
    forms); raw tables get an empirical B and C fit against their census.
    """
    if source.kind == "builtin":
        name = source.name
        if name == "FF":
            q = source.param("q")
            return AsymptoticConstants(
                B=Fraction(1),
                C=Fraction(q, q - 1),
                lam=Fraction(q),
                provenance={
                    "B": "exact-closed-form",
                    "C": "exact-closed-form",
                    "lambda": "exact-closed-form",
                },
                notes=(
                    "C = q/(q-1) is the census truth: ratio(X) = (q^(X+1)-1)/q^X; "
                    "the often-quoted C = 1 for this example disagrees with the "
                    "exact census and is not reported",
                ),
            )
        if name == "E":
            return elliptic_constants(source.param("p"), source.param("n"), precision)
        if name == "GA":
            return ga_constants(precision)
        if name == "periodic":
            values = source.param("values")
            reps = max(2, 24 // len(values) + 1)
            report = lambda1_analysis(list(values) * reps)
            return AsymptoticConstants(
                B=Fraction(report.B),
                C=report.C,
                lam=Fraction(1),
                provenance={
                    "B": "exact-closed-form",
                    "C": "exact-closed-form",
                    "lambda": "exact-closed-form",
                },
                notes=(
                    "growth rate 1: the growth law reads N(X) ~ (C/Gamma(B+1)) X^B "
                    "= leading * X^B with leading = %s" % report.leading,
                ),
            )
        # GM falls through to the generic product-form path
    if source.kind == "table":
        if cen is None:
            cen = build_census(source, len(source.table), precision=precision)
        B = cesaro_empirical(source, cen.lam, cen.X_max, precision)
        fit = _fit_growth_law(cen, B, cen.lam.value, precision)
        return AsymptoticConstants(
            B=B,
            C=fit.fitted_C,
            lam=cen.lam.value,
            provenance={"B": "empirical-fit", "C": "empirical-fit", "lambda": "empirical-fit"},
            notes=(
                "raw-table constants are finite-window estimates against an "
                "estimated growth rate; all fields are low-confidence",
            ),
        )
    spec = systems.fad_spec_for(source)
    spectrum = systems.spectrum_for(source, precision)
    B = cesaro_exact_fad(spec, spectrum=spectrum, precision=precision)
    if cen is None:
        cen = build_census(source, 60, precision=precision)
    fit = _fit_growth_law(cen, B.value, spectrum.lam, precision)
    return AsymptoticConstants(
        B=B.value,
        C=fit.fitted_C,
        lam=spectrum.lam,
        provenance={
            "B": "exact-closed-form" if B.exact else "series-truncation",
            "C": "empirical-fit",
            "lambda": "exact-closed-form" if spectrum.rate.exact else "series-truncation",
        },
        tail_bounds={} if B.exact else {"B": B.tail_bound},
        notes=("C fitted at X = %d; the growth law's 1/log X error makes this low-confidence" % fit.rows[-1][0],),
    )
