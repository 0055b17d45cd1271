"""Rate functions and exponential tail bounds for additive statistics.

The scaled statistic W(X)/(B log X) satisfies a large-deviation principle
with rate I(x) = sup_theta { theta x - integral (e^(theta y) - 1) rho(dy) }
over the limiting prime measure rho. Closed forms cover the unit-weight
case (Poisson rate x log x - x + 1) and weighted subsets; the general
Legendre transform is solved numerically over any finite measure. The
exponential Chebyshev inequality gives bounds valid at every finite X,
which the tail reports place alongside exact census tails.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import mpmath as mp

from orbitstat.distribution import w_pmf
from orbitstat.polyops import to_mpf


def poisson_rate(x, precision=128):
    """x log x - x + 1 on x > 0, with the continuity value 1 at x = 0 and
    +inf for x < 0."""
    with mp.workprec(precision + 16):
        x = to_mpf(x)
        if x < 0:
            return mp.inf
        if x == 0:
            return mp.mpf(1)
        return +(x * mp.log(x) - x + 1)


def subset_rate(x, lam, r, precision=128):
    """(x/lam) log(x/(lam r)) - x/lam + r for a weight-lam subset holding an
    r-fraction of the prime measure; trivial (+inf everywhere) when r = 0."""
    lam = Fraction(lam)
    r = Fraction(r)
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not 0 <= r <= 1:
        raise ValueError("r must lie in [0, 1]")
    with mp.workprec(precision + 16):
        if r == 0:
            return mp.inf
        x = to_mpf(x)
        if x < 0:
            return mp.inf
        lam_m = to_mpf(lam)
        r_m = to_mpf(r)
        if x == 0:
            return +r_m  # continuity limit of the displayed formula
        return +((x / lam_m) * mp.log(x / (lam_m * r_m)) - x / lam_m + r_m)


def _check_probability(rho):
    total = rho.total_mass()
    if isinstance(total, Fraction):
        if total != 1:
            raise ValueError(f"measure has total mass {total}, not a probability")
    elif abs(total - 1) > mp.mpf("1e-9"):
        raise ValueError("measure has total mass %s, not a probability" % mp.nstr(mp.mpf(total), 12))


def legendre_rate(rho, x, tol=mp.mpf("1e-10"), precision=128):
    """sup_theta { theta x - sum mass (e^(theta y) - 1) } for a finitely
    supported probability measure rho.

    The cumulant integrand L(theta) = sum m (e^(theta y) - 1) is smooth and
    convex with monotone derivative L'(theta) = sum m y e^(theta y), so the
    supremum solves L'(theta*) = x whenever x lies in the open range of
    attainable slopes. Boundary and infinite cases are decided by atom
    signs up front, never by solver divergence:
      x outside the slope range entirely -> +inf;
      x = 0 with one-signed support -> the mass strictly on that side
      (limit value, e.g. I(0) = 1 for the unit atom, r for a subset);
      measure concentrated at 0 -> 0 at x = 0, +inf elsewhere.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_probability(rho)
    atoms = [(y, m) for y, m in rho.real_atoms(precision) if m != 0]
    with mp.workprec(precision + 16):
        x = to_mpf(x)
        has_pos = any(y > 0 for y, _ in atoms)
        has_neg = any(y < 0 for y, _ in atoms)
        if x > 0 and not has_pos:
            return mp.inf
        if x < 0 and not has_neg:
            return mp.inf
        if x == 0:
            if has_pos and has_neg:
                pass  # interior point, solved below
            else:
                # slope range closes at 0 from one side; the supremum is the
                # escaping limit -L(-sign * inf) = mass strictly off zero
                return +sum((m for y, m in atoms if y != 0), mp.mpf(0))

        def dL(theta):
            return sum((m * y * mp.e ** (theta * y) for y, m in atoms), mp.mpf(0))

        def ddL(theta):
            return sum((m * y * y * mp.e ** (theta * y) for y, m in atoms), mp.mpf(0))

        def L(theta):
            return sum((m * (mp.e ** (theta * y) - 1) for y, m in atoms), mp.mpf(0))

        # bracket theta* by doubling away from 0
        lo = hi = mp.mpf(0)
        step = mp.mpf(1)
        d0 = dL(mp.mpf(0))
        if d0 < x:
            while dL(hi) < x:
                hi += step
                step *= 2
                if hi > 1e6:
                    raise ValueError("slope bracket failed (unreachable by atom-sign analysis)")
            lo = hi - step / 2
        elif d0 > x:
            while dL(lo) > x:
                lo -= step
                step *= 2
                if lo < -1e6:
                    raise ValueError("slope bracket failed (unreachable by atom-sign analysis)")
            hi = lo + step / 2
        # Newton with bisection fallback inside [lo, hi]
        theta = (lo + hi) / 2
        for _ in range(200):
            g = dL(theta) - x
            if abs(g) <= tol * max(1, abs(x)):
                break
            if g > 0:
                hi = theta
            else:
                lo = theta
            curvature = ddL(theta)
            if curvature > 0:
                candidate = theta - g / curvature
            else:
                candidate = theta
            if lo < candidate < hi:
                theta = candidate
            else:
                theta = (lo + hi) / 2
        return +(theta * x - L(theta))


@dataclass(frozen=True, eq=False)
class RateFunction:
    """A rate function x -> I(x): the closed-form poisson or subset rate,
    or the numeric Legendre transform of a discrete measure."""

    rate: object  # callable (x, precision) -> mpf

    @classmethod
    def poisson(cls):
        return cls(poisson_rate)

    @classmethod
    def subset(cls, lam, r):
        lam, r = Fraction(lam), Fraction(r)
        return cls(lambda x, precision: subset_rate(x, lam, r, precision))

    @classmethod
    def legendre(cls, rho, tol=mp.mpf("1e-10")):
        return cls(lambda x, precision: legendre_rate(rho, x, tol, precision))

    def evaluate(self, x, precision=128):
        return self.rate(x, precision)


def chebyshev_bound(mgf_fn, a, theta_grid, precision=128):
    """min over the grid of log E[e^(theta g)] - theta a: an upper bound on
    log P[g >= a] valid at every finite X, not just asymptotically."""
    thetas = list(theta_grid)
    if not thetas:
        raise ValueError("theta grid must be non-empty")
    with mp.workprec(precision + 16):
        best = None
        for theta in thetas:
            theta = to_mpf(theta)
            if theta <= 0:
                raise ValueError("theta grid must be positive")
            value = mp.log(to_mpf(mgf_fn(theta))) - theta * to_mpf(a)
            if best is None or value < best:
                best = value
        return +best


_DEFAULT_THETA_GRID = tuple(mp.mpf("0.05") * mp.mpf("1.25") ** i for i in range(40))


@dataclass(frozen=True)
class TailRow:
    X: int
    epsilon: object
    threshold: object  # (1 + eps) B log X
    log_p: object  # exact log P[W >= threshold]; -inf marker when P = 0
    normalized: object  # -log P / (B log X)
    rate_value: object  # I(1 + eps)
    chebyshev: object  # grid Chebyshev bound on log P


@dataclass(frozen=True, eq=False)
class TailReport:
    rows: tuple


def tail_report(bc, constants, epsilons, rate, xs=None, precision=128):
    """Exact census tails P[W >= (1+eps) B log X] next to the rate value
    I(1+eps) and an always-valid Chebyshev bound.

    Report only: the exponent's o(1) term makes fixed-X pass/fail
    meaningless, so nothing here asserts convergence. Growth rate 1 is
    refused (the statistic is bounded; there is no meaningful
    large-deviation regime), and so is eps < 0 (below 1 + eps = 1 the upper
    tail tends to 1, so I(1+eps) is no exponent of it).
    """
    lam = constants.lam
    if float(lam) == 1:
        raise ValueError(
            "growth rate 1: W is eventually constant in distribution and "
            "tails beyond B vanish; no meaningful large-deviation report"
        )
    B = constants.B
    if float(B) <= 0:
        raise ValueError("constants.B must be positive")
    epsilons = tuple(epsilons)
    if any(eps < 0 for eps in epsilons):
        raise ValueError("epsilon must be at least 0")
    xs = sorted({max(1, bc.X // 3), max(1, (2 * bc.X) // 3), bc.X}) if xs is None else tuple(xs)
    if any(X > bc.X for X in xs):
        raise ValueError("window outside census")
    rows = []
    with mp.workprec(precision + 16):
        Bm = to_mpf(B)
        # I(1+eps) does not depend on the window: one evaluation per eps
        rated = [(eps_m, rate.evaluate(1 + eps_m, precision)) for eps_m in map(to_mpf, epsilons)]
        for X in xs:
            pmf = w_pmf(bc, X)
            real = pmf.real_atoms(precision)
            # the grid transforms depend on the window only: one pass serves every eps
            transform = cache(lambda t: pmf.laplace(t, precision))
            scale = Bm * mp.log(X)
            for eps_m, rate_value in rated:
                threshold = +((1 + eps_m) * scale)
                p = sum((m for (y, _), (_, m) in zip(real, pmf.atoms) if y >= threshold), Fraction(0))
                if p == 0:
                    log_p = mp.ninf
                    normalized = mp.inf
                else:
                    log_p = +mp.log(to_mpf(p))
                    normalized = +(-log_p / scale) if scale != 0 else mp.inf
                cheb = chebyshev_bound(transform, threshold, _DEFAULT_THETA_GRID, precision)
                rows.append(
                    TailRow(
                        X=X,
                        epsilon=eps_m,
                        threshold=threshold,
                        log_p=log_p,
                        normalized=normalized,
                        rate_value=rate_value,
                        chebyshev=cheb,
                    )
                )
    return TailReport(rows=tuple(rows))
