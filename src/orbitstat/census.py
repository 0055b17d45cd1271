"""Exact orbit counting.

From sigma_k three tables are derived, all in exact big integers:

  P_ell = (1/ell) sum_{n | ell} mu(ell/n) sigma_n   (prime orbits of length ell)
  N_n   from n N_n = sum_k sigma_k N_{n-k}          (general orbits of length n)
  N_n   again from prod (1 - z^ell)^(-P_ell)        (independent cross-check)

plus the cumulative counting functions N(X) = sum_{n<=X} N_n (the empty
orbit is included via N_0 = 1), P(X) = sum_{ell<=X} P_ell, and the Mertens
sum M(X) = sum_{ell<=X} P_ell Lambda^(-ell).
"""

import csv
from functools import cached_property

import mpmath as mp
from fractions import Fraction

from orbitstat import kernels, systems


def prime_counts(sigma):
    """P table from a sigma table (both with index 0 unused).

    Raises on a non-integral or negative quotient, carrying the offending
    length: such a sigma is not realizable by any dynamical system.
    """
    report = systems.validate_dold(sigma[1:])
    if not report.ok:
        ell, reason = report.first_failure
        raise ValueError(f"sigma fails the Dold condition at ell={ell}: {reason}")
    return [0, *report.primes]


def orbit_counts(sigma):
    """N table (N_0..N_X) from the exponential recurrence; exact."""
    return kernels.exp_logderiv_series(sigma, len(sigma) - 1)


def euler_orbit_counts(P, X):
    """N table from the Euler product over prime counts; exact."""
    if any(p < 0 for p in P):
        raise ValueError("negative prime count")
    return kernels.euler_product_series(P, X)


class OrbitCensus:
    """Immutable exact census of a source up to degree X_max.

    sigma, primes, totals are lists indexed by degree (sigma[0] = primes[0]
    = 0, totals[0] = 1).
    """

    def __init__(self, source, X_max, sigma, primes, totals, precision):
        self.source = source
        self.X_max = X_max
        self.sigma = sigma
        self.primes = primes
        self.totals = totals
        self.precision = precision
        self._cum_totals = None
        self._cum_primes = None
        self._mertens_num = None  # exact-rational accumulation when lam is rational

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, source, X_max, precision=128, crosscheck_to=256):
        """Compute a census from any SigmaSource.

        The Dold check on the sigma prefix yields the prime counts, so a
        table no dynamical system realizes fails here, naming the first
        failing length. The Euler product cross-check runs to
        min(X_max, crosscheck_to) at build time; verify_euler() reruns it
        to any degree on demand.
        """
        if X_max < 1:
            raise ValueError("X_max >= 1 required")
        sigma = systems.sigma_table(source, X_max)
        primes = prime_counts(sigma)
        totals = orbit_counts(sigma)
        census = cls(source, X_max, sigma, primes, totals, precision)
        if crosscheck_to:
            census.verify_euler(min(X_max, crosscheck_to))
        return census

    def verify_euler(self, up_to=None):
        """Cross-check the exponential route against the Euler product."""
        up_to = self.X_max if up_to is None else up_to
        alt = euler_orbit_counts(self.primes[: up_to + 1], up_to)
        for n in range(up_to + 1):
            if alt[n] != self.totals[n]:
                raise AssertionError(
                    f"orbit-count routes disagree at n={n}: {self.totals[n]} vs {alt[n]}"
                )
        return True

    @cached_property
    def lam(self):
        """The growth rate used for Mertens sums, computed on first use: the
        counts and distributions never read it, and a raw table shorter
        than growth_rate needs has none."""
        return systems.growth_rate(self.source, self.precision)

    # -- cumulative counting functions --------------------------------------

    def _prefix(self):
        if self._cum_totals is None:
            ct = [0] * (self.X_max + 1)
            cp = [0] * (self.X_max + 1)
            t = 0
            p = 0
            for n in range(self.X_max + 1):
                t += self.totals[n]
                p += self.primes[n]
                ct[n] = t
                cp[n] = p
            self._cum_totals = ct
            self._cum_primes = cp
        return self._cum_totals, self._cum_primes

    def count_orbits(self, X, include_empty=True):
        """N(X) = number of general orbits of length <= X (empty included)."""
        ct, _ = self._prefix()
        if X > self.X_max or X < 0:
            raise ValueError("X out of census range")
        return ct[X] if include_empty else ct[X] - 1

    def count_primes(self, X):
        _, cp = self._prefix()
        if X > self.X_max or X < 0:
            raise ValueError("X out of census range")
        return cp[X]

    def mertens_exact(self, X):
        """M(X) as an exact rational; None when Lambda is irrational."""
        if self.lam.exact is None:
            return None
        if X > self.X_max or X < 0:
            raise ValueError("X out of census range")
        if self._mertens_num is None:
            num, den = self.lam.exact.numerator, self.lam.exact.denominator
            # M(ell) = T_ell / num^ell with T_ell = T_{ell-1} num + P_ell den^ell,
            # so a single integer per ell carries the exact partial sum.
            table = [0] * (self.X_max + 1)
            acc = 0
            dpow = 1
            for ell in range(1, self.X_max + 1):
                dpow *= den
                acc = acc * num + self.primes[ell] * dpow
                table[ell] = acc
            self._mertens_num = table
        num = self.lam.exact.numerator
        return Fraction(self._mertens_num[X], num**X) if X >= 1 else Fraction(0)

    def mertens(self, X):
        """M(X) = sum_{ell<=X} P_ell Lambda^(-ell) at the census precision.

        Rational Lambda accumulates exactly and rounds once at the end.
        """
        exact = self.mertens_exact(X)
        with mp.workprec(self.precision + 16):
            if exact is not None:
                return mp.mpf(exact.numerator) / exact.denominator
            if X > self.X_max or X < 0:
                raise ValueError("X out of census range")
            lam = self.lam.value
            acc = mp.mpf(0)
            for ell in range(1, X + 1):
                if self.primes[ell]:
                    acc += self.primes[ell] * lam ** (-ell)
            return +acc

    def cumulative(self, X):
        """(N(X), P(X), M(X)); the first two exact integers, M high precision."""
        return self.count_orbits(X), self.count_primes(X), self.mertens(X)

    # -- export --------------------------------------------------------------

    def write_csv(self, fileobj, include_empty=True):
        """Rows n, sigma, P, N, cumN, cumP, M for n = 0..X_max.

        Integer columns are exact decimal strings; M is rendered at the
        census precision. The n = 0 row anchors the cumulatives (sigma and
        P are blank there); with include_empty=False it is dropped and cumN
        excludes the empty orbit.
        """
        digits = max(8, int(self.precision * 0.3010) + 2)
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["n", "sigma", "P", "N", "cumN", "cumP", "M"])
        start = 0 if include_empty else 1
        for n in range(start, self.X_max + 1):
            writer.writerow(
                [
                    n,
                    "" if n == 0 else str(self.sigma[n]),
                    "" if n == 0 else str(self.primes[n]),
                    str(self.totals[n]),
                    str(self.count_orbits(n, include_empty=include_empty)),
                    str(self.count_primes(n)),
                    mp.nstr(self.mertens(n), digits),
                ]
            )


def build_census(source, X_max, precision=128, crosscheck_to=256):
    """Convenience wrapper over OrbitCensus.build."""
    return OrbitCensus.build(source, X_max, precision=precision, crosscheck_to=crosscheck_to)
