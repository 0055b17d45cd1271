"""Exact orbit counting.

From sigma_k three tables are derived, all in exact big integers:

  P_ell = (sigma_ell - sum_{d | ell, d < ell} d P_d) / ell   (prime orbits of length ell)
  N_n   from n N_n = sum_k sigma_k N_{n-k}                   (general orbits of length n)
  N_n   again from prod (1 - z^ell)^(-P_ell)                 (independent cross-check)

plus the cumulative counting functions N(X) = sum_{n<=X} N_n (the empty
orbit is included via N_0 = 1), P(X) = sum_{ell<=X} P_ell, and the Mertens
sum M(X) = sum_{ell<=X} P_ell Lambda^(-ell).
"""

import csv
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from orbitstat import kernels, systems
from orbitstat.polyops import to_mpf

# the degree of the Euler-product cross-check at build time, unless a
# caller asks for another
CROSSCHECK_TO = 256


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
        # (X, weight classes up to X) -> BivariateCensus, kept by joint_census
        self.joint_censuses = {}
        # X -> OrbitSampler, kept by sampler.sampler_for
        self.samplers = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, source, X_max, precision=128, crosscheck_to=CROSSCHECK_TO):
        """Compute a census from any SigmaSource: from_sigma on its
        sigma table up to X_max."""
        if X_max < 1:
            raise ValueError("X_max >= 1 required")
        return cls.from_sigma(source, systems.sigma_table(source, X_max), precision, crosscheck_to)

    @classmethod
    def from_sigma(cls, source, sigma, precision, crosscheck_to):
        """The census of a source up to X_max = len(sigma) - 1 >= 1 from
        its sigma table, as systems.sigma_table gives it.

        The Dold check on the sigma prefix yields the prime counts, so a
        table no dynamical system realizes fails here, naming the first
        failing length. The Euler product cross-check runs to
        min(X_max, crosscheck_to) at build time; verify_euler() reruns it
        to any degree on demand.
        """
        X_max = len(sigma) - 1
        primes = prime_counts(sigma)
        totals = kernels.exp_logderiv_series(sigma, X_max)
        census = cls(source, X_max, sigma, primes, totals, precision)
        if crosscheck_to:
            census.verify_euler(min(X_max, crosscheck_to))
        return census

    def verify_euler(self, up_to=None):
        """Cross-check the exponential route against the Euler product."""
        up_to = self.X_max if up_to is None else up_to
        alt = kernels.euler_product_series(self.primes[: up_to + 1], up_to)
        for n in range(up_to + 1):
            if alt[n] != self.totals[n]:
                # sizes, not decimals: a count past Python's digit limit
                # would turn this report into a ValueError
                raise AssertionError(
                    f"orbit-count routes disagree at n={n}: the exponential route gives "
                    f"{self.totals[n].bit_length()} bits, the Euler product "
                    f"{alt[n].bit_length()} bits, differing by a "
                    f"{(self.totals[n] - alt[n]).bit_length()}-bit amount"
                )
        return True

    @cached_property
    def spectrum(self):
        """The SpectrumReport of a product form's matrix part at the census
        precision: one root split serves lam and growth_law."""
        return systems.spectrum_for(self.source, self.precision)

    @cached_property
    def lam(self):
        """The growth rate used for Mertens sums, computed on first use: the
        counts and distributions never read it, and a raw table shorter
        than growth_rate needs has none. A product form reads it from its
        spectrum, as growth_rate does."""
        if self.source.fad is not None:
            return self.spectrum.rate
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
        """Running M(X) for X = 0..X_max as GrowthRate.inverse_power_sums
        gives it: the integer T_X with M(X) = T_X / num^X for rational
        Lambda = num/den, else the mpf partial sum at the census precision
        plus 16 bits."""
        return self.lam.inverse_power_sums(self.primes, self.precision)

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
        import mpmath as mp

        with mp.workprec(self.precision + 16):
            return to_mpf(exact)

    # -- export --------------------------------------------------------------

    def write_csv(self, fileobj, include_empty=True):
        """Rows n, sigma, P, N, cumN, cumP, M for n = 0..X_max.

        Integer columns are exact decimal strings; M is rendered at the
        census precision. The n = 0 row anchors the cumulatives (sigma and
        P are blank there); with include_empty=False it is dropped and cumN
        excludes the empty orbit.
        """
        import mpmath as mp

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


def build_census(source, X_max, precision=128, crosscheck_to=CROSSCHECK_TO):
    """Convenience wrapper over OrbitCensus.build."""
    return OrbitCensus.build(source, X_max, precision=precision, crosscheck_to=crosscheck_to)
