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
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

import mpmath as mp

from orbitstat import kernels, systems
from orbitstat.polyops import to_mpf


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
    #
    # N(X), P(X) and M(X) are prefix tables indexed by X, each built once
    # on first use.

    @cached_property
    def _cum_totals(self):
        return list(accumulate(self.totals))

    @cached_property
    def _cum_primes(self):
        return list(accumulate(self.primes))

    @cached_property
    def _mertens_prefix(self):
        """Running M(X) for X = 0..X_max. For rational Lambda = num/den the
        entry is the integer T_X with M(X) = T_X / num^X, from
        T_ell = T_{ell-1} num + P_ell den^ell; otherwise it is the mpf
        partial sum at the census precision plus 16 bits."""
        table = [0] * (self.X_max + 1)
        exact = self.lam.exact
        if exact is not None:
            num, den = exact.numerator, exact.denominator
            acc = 0
            dpow = 1
            for ell in range(1, self.X_max + 1):
                dpow *= den
                acc = acc * num + self.primes[ell] * dpow
                table[ell] = acc
            return table
        with mp.workprec(self.precision + 16):
            lam = self.lam.value
            acc = table[0] = mp.mpf(0)
            for ell in range(1, self.X_max + 1):
                if self.primes[ell]:
                    acc += self.primes[ell] * lam ** (-ell)
                table[ell] = acc
        return table

    def _check_range(self, X):
        if X > self.X_max or X < 0:
            raise ValueError("X out of census range")

    def count_orbits(self, X, include_empty=True):
        """N(X) = number of general orbits of length <= X (empty included)."""
        self._check_range(X)
        return self._cum_totals[X] if include_empty else self._cum_totals[X] - 1

    def count_primes(self, X):
        self._check_range(X)
        return self._cum_primes[X]

    def mertens_exact(self, X):
        """M(X) as an exact rational; None when Lambda is irrational."""
        if self.lam.exact is None:
            return None
        self._check_range(X)
        return Fraction(self._mertens_prefix[X], self.lam.exact.numerator**X)

    def mertens(self, X):
        """M(X) = sum_{ell<=X} P_ell Lambda^(-ell) at the census precision.

        Rational Lambda accumulates exactly and converts at the end;
        irrational Lambda reads the running mpf prefix.
        """
        exact = self.mertens_exact(X)
        if exact is None:
            self._check_range(X)
            return self._mertens_prefix[X]
        with mp.workprec(self.precision + 16):
            return to_mpf(exact)

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
