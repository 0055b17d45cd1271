"""Rate functions and exponential tail bounds for additive statistics.

The scaled statistic W(X)/(B log X) satisfies a large-deviation principle
with rate I(x) = sup_theta { theta x - integral (e^(theta y) - 1) rho(dy) }
over the limiting prime measure rho. Closed forms cover the unit-weight
case (Poisson rate x log x - x + 1) and weighted subsets; the general
Legendre transform is solved numerically over any finite measure. The
exponential Chebyshev inequality gives bounds valid at every finite X,
which the tail reports place alongside exact census tails.
"""

import math
from fractions import Fraction
from functools import cache

import mpmath as mp
from mpmath.libmp import fzero, mpf_add, mpf_e, mpf_exp, mpf_log, mpf_mul, round_nearest

from orbitstat.distribution import w_pmf
from orbitstat.numtheory import Record
from orbitstat.polyops import to_mpf


def poisson_rate(x, precision=128):
    """x log x - x + 1 on x > 0, with the continuity value 1 at x = 0 and
    +inf for x < 0 and x = +inf: the subset rate of weight 1 on the whole
    measure."""
    return subset_rate(x, 1, 1, precision)


def subset_rate(x, lam, r, precision=128):
    """(x/lam) log(x/(lam r)) - x/lam + r for a weight-lam subset holding an
    r-fraction of the prime measure, +inf at x = +inf; trivial (+inf
    everywhere) when r = 0. x = nan is refused."""
    lam = Fraction(lam)
    r = Fraction(r)
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not 0 <= r <= 1:
        raise ValueError("r must lie in [0, 1]")
    with mp.workprec(precision + 16):
        x = to_mpf(x)
        if mp.isnan(x):
            raise ValueError("x must be a number, got nan")
        if r == 0 or x < 0 or mp.isinf(x):
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


@cache
def _log_e(prec):
    """log e at prec + 10 bits, as mpmath takes it for a power of e at prec."""
    return mpf_log(mpf_e(prec, round_nearest), prec + 10, round_nearest)


def _e_powers(exponents):
    """mp.e ** t for each mpf t at the working precision, bit for bit.

    For a t that is neither an integer nor a half-integer, mpmath computes
    e ** t as exp(t * log e), the product exact and log e taken afresh at
    10 extra bits; here log e is taken once per precision. An integer or
    half-integer t (mpf exponent >= -1, zero included) keeps mpmath's own
    branches.
    """
    prec = mp.mp.prec
    log_e = _log_e(prec)
    powers = []
    for t in exponents:
        tv = t._mpf_
        if tv[2] >= -1:
            powers.append(mp.e ** t)
        else:
            powers.append(mp.make_mpf(mpf_exp(mpf_mul(tv, log_e), prec, round_nearest)))
    return powers


def _mass_sum(atoms, powers):
    """Sum of mass * power over real atoms at the working precision, in
    atom order, each step rounded as acc += m * power would: with powers
    from _e_powers, a transform is bit-identical to the plain mpf sum of
    mass * mp.e ** (theta * value)."""
    prec = mp.mp.prec
    acc = fzero
    for (_, m), power in zip(atoms, powers):
        acc = mpf_add(acc, mpf_mul(m._mpf_, power._mpf_, prec, round_nearest), prec, round_nearest)
    return mp.make_mpf(acc)


# Newton stops once |L'(theta) - x| <= _NEWTON_TOL * max(1, |x|)
_NEWTON_TOL = mp.mpf("1e-10")


def legendre_rate(rho, x, precision=128):
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
      measure concentrated at 0 -> 0 at x = 0, +inf elsewhere;
      x = +-inf -> +inf. x = nan is refused.
    """
    _check_probability(rho)
    atoms = [(y, m) for y, m in rho.real_atoms(precision) if m != 0]
    with mp.workprec(precision + 16):
        x = to_mpf(x)
        if mp.isnan(x):
            raise ValueError("x must be a number, got nan")
        if mp.isinf(x):
            return mp.inf
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

        # L, L' and L'' at theta are sums over the powers e^(theta y), one per atom
        def powers(theta):
            return _e_powers([theta * y for y, _ in atoms])

        def dL(pw):
            return sum((m * y * p for (y, m), p in zip(atoms, pw)), mp.mpf(0))

        def ddL(pw):
            return sum((m * y * y * p for (y, m), p in zip(atoms, pw)), mp.mpf(0))

        def L(pw):
            return sum((m * (p - 1) for (_, m), p in zip(atoms, pw)), mp.mpf(0))

        # bracket theta* by doubling away from 0
        lo = hi = mp.mpf(0)
        step = mp.mpf(1)
        d0 = dL(powers(mp.mpf(0)))
        if d0 < x:
            while dL(powers(hi)) < x:
                hi += step
                step *= 2
                if hi > 1e6:
                    raise ValueError("slope bracket failed (unreachable by atom-sign analysis)")
            lo = hi - step / 2
        elif d0 > x:
            while dL(powers(lo)) > x:
                lo -= step
                step *= 2
                if lo < -1e6:
                    raise ValueError("slope bracket failed (unreachable by atom-sign analysis)")
            hi = lo + step / 2
        # Newton with bisection fallback inside [lo, hi]
        theta = (lo + hi) / 2
        for _ in range(200):
            pw = powers(theta)
            g = dL(pw) - x
            if abs(g) <= _NEWTON_TOL * max(1, abs(x)):
                break
            if g > 0:
                hi = theta
            else:
                lo = theta
            curvature = ddL(pw)
            if curvature > 0:
                candidate = theta - g / curvature
            else:
                candidate = theta
            if lo < candidate < hi:
                theta = candidate
            else:
                theta = (lo + hi) / 2
        else:  # theta moved after the last powers were taken
            pw = powers(theta)
        return +(theta * x - L(pw))


class RateFunction(Record, eq=False):
    """A rate function x -> I(x) from a callable (x, precision) -> mpf,
    such as poisson_rate, subset_rate or legendre_rate on a fixed measure."""
    __slots__ = ("rate",)

    def __init__(self, rate):
        object.__setattr__(self, "rate", rate)  # callable (x, precision) -> mpf

    @classmethod
    def poisson(cls):
        return cls(poisson_rate)

    def evaluate(self, x, precision=128):
        return self.rate(x, precision)


def chebyshev_bound(mgf_fn, a, theta_grid, precision=128):
    """min over the grid of log E[e^(theta g)] - theta a: an upper bound on
    log P[g >= a] valid at every finite X, not just asymptotically."""
    thetas = list(theta_grid)
    if not thetas:
        raise ValueError("theta grid must be non-empty")
    with mp.workprec(precision + 16):
        thetas = [to_mpf(theta) for theta in thetas]
        if any(theta <= 0 for theta in thetas):
            raise ValueError("theta grid must be positive")
        return _grid_min([(theta, mp.log(to_mpf(mgf_fn(theta)))) for theta in thetas], to_mpf(a))


def _grid_min(log_mgfs, a):
    """min over (theta, log E[e^(theta g)]) pairs of log E[e^(theta g)] -
    theta a, at the working precision; the first pair wins a tie."""
    return +min(log_m - theta * a for theta, log_m in log_mgfs)


_DEFAULT_THETA_GRID = tuple(mp.mpf("0.05") * mp.mpf("1.25") ** i for i in range(40))


class TailRow(Record):
    __slots__ = ("X", "epsilon", "threshold", "log_p", "normalized", "rate_value", "chebyshev")

    def __init__(self, X, epsilon, threshold, log_p, normalized, rate_value, chebyshev):
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "threshold", threshold)  # (1 + eps) B log X
        object.__setattr__(self, "log_p", log_p)  # exact log P[W >= threshold]; -inf marker when P = 0
        object.__setattr__(self, "normalized", normalized)  # -log P / (B log X)
        object.__setattr__(self, "rate_value", rate_value)  # I(1 + eps)
        object.__setattr__(self, "chebyshev", chebyshev)  # grid Chebyshev bound on log P


class TailReport(Record, eq=False):
    __slots__ = ("rows",)

    def __init__(self, rows):
        object.__setattr__(self, "rows", rows)


def _screen(atoms, thetas):
    """Per theta, a float log E[e^(theta W)] from the exact (value, mass)
    atoms and the magnitude M its error bound scales with (see tail_report).

    log m is taken as log numerator - log denominator, which holds for
    integers of any size; each term log m + theta y goes through one
    log-sum-exp shifted by its largest term.
    """
    logs = []
    for y, m in atoms:
        num, den = math.log(m.numerator), math.log(m.denominator)
        logs.append((num - den, abs(num) + abs(den), float(y)))
    screen = []
    for theta in thetas:
        terms = [log_m + theta * y for log_m, _, y in logs]
        top = max(terms)
        approx = top + math.log(sum(math.exp(t - top) for t in terms))
        screen.append((approx, max(size + theta * abs(y) for _, size, y in logs) + 2))
    return screen


def tail_report(bc, constants, epsilons, rate, xs=None, precision=128):
    """Exact census tails P[W >= (1+eps) B log X] next to the rate value
    I(1+eps) and an always-valid Chebyshev bound.

    Report only: the exponent's o(1) term makes fixed-X pass/fail
    meaningless, so nothing here asserts convergence. Growth rate 1 is
    refused (the statistic is bounded; there is no meaningful
    large-deviation regime), and so is eps < 0 (below 1 + eps = 1 the upper
    tail tends to 1, so I(1+eps) is no exponent of it).

    The Chebyshev column is chebyshev_bound over the default grid on the
    plain mpf transform, bit for bit. A float screen of every grid theta
    keeps only those where the minimum can fall; each kept (window, theta)
    takes its transform once, one e^(theta y) per value of the window and
    one log, shared by every eps.
    """
    lam = constants.lam
    if lam == 1:
        raise ValueError(
            "growth rate 1: W is eventually constant in distribution and "
            "tails beyond B vanish; no meaningful large-deviation report"
        )
    B = constants.B
    if B <= 0:
        raise ValueError("constants.B must be positive")
    epsilons = tuple(epsilons)
    if any(eps < 0 for eps in epsilons):
        raise ValueError("epsilon must be at least 0")
    xs = sorted({max(1, bc.X // 3), max(1, (2 * bc.X) // 3), bc.X}) if xs is None else tuple(xs)
    if any(not 1 <= X <= bc.X for X in xs):
        raise ValueError("window outside census")
    rows = []
    pmfs = [w_pmf(bc, X) for X in xs]
    float_thetas = [float(theta) for theta in _DEFAULT_THETA_GRID]
    with mp.workprec(precision + 16):
        Bm = to_mpf(B)
        # I(1+eps) does not depend on the window: one evaluation per eps
        rated = [(eps_m, rate.evaluate(1 + eps_m, precision)) for eps_m in map(to_mpf, epsilons)]
        thetas = [to_mpf(theta) for theta in _DEFAULT_THETA_GRID]
        for X, pmf in zip(xs, pmfs):
            real = pmf.real_atoms(precision)
            screen = _screen(pmf.atoms, float_thetas)
            # Screen error. Let c_i = log E[e^(theta_i W)] - theta_i a in exact
            # arithmetic, on the exact atoms and the mpf threshold a, with n
            # atoms and M_i = max_y (|log num| + |log den| + theta_i |y|) + 2.
            # Floats, u = 2^-53: the log of an integer is off by at most
            # 4u (|log| + 1), so each term log m + theta y is off by 6u M_i, and
            # the log-sum-exp moves by no more than its worst term. The shift,
            # exp, n - 1 additions, log and final addition add 3u M_i + nu +
            # 2u log n; float(a), theta a and the subtraction add u (M_i + log n
            # + 3 theta |a|). In all |float - c_i| <= u (10 M_i + 4n + 3 theta |a|)
            # <= 2^-52 (n + 10)(M_i + theta |a|), as M_i >= 2.
            # mpf, v = 2^-(precision + 16): mass and value conversions round
            # twice each, theta y once, and log e is off by v, so e^(theta y)
            # is off by 4.01 v theta |y| relative; exp and mass * power add v
            # each and the additions of positive terms (n - 1) v. The masses
            # sum to 1, so |log E| <= theta max|y|; the log, theta a and the
            # subtraction round once each. Below 37 bits theta itself rounds,
            # which moves c_i by v theta (max|y| + |a|). In all |mpf - c_i| <=
            # v (1.01 n + 3.03 + 7.05 theta max|y| + 3 theta |a|)
            # <= v (n + 10)(M_i + theta |a|).
            # Both are taken four times over, for second-order terms and
            # mpmath's last-ulp rounding. Then |float - mpf| <= err_i, so the
            # theta whose mpf value is least has float - err <= min(float + err).
            slack = (len(real) + 10) * (2.0**-50 + 2.0 ** -(precision + 14))
            # log E[e^(theta W)] depends on the window only: one log per kept theta serves every eps
            log_mgfs = {}
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
                a = float(threshold)
                bounds = [(approx - theta * a, slack * (size + theta * abs(a)))
                          for (approx, size), theta in zip(screen, float_thetas)]
                cut = min(c + err for c, err in bounds)
                kept = [i for i, (c, err) in enumerate(bounds) if c - err <= cut]
                for i in kept:
                    if i not in log_mgfs:
                        powers = _e_powers([thetas[i] * y for y, _ in real])
                        log_mgfs[i] = mp.log(_mass_sum(real, powers))
                cheb = _grid_min([(thetas[i], log_mgfs[i]) for i in kept], threshold)
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
