"""Exact orbit-decomposition statistics of discrete dynamical systems.

Counting sequences sigma_k (periodic points), prime orbit counts,
cumulative orbit censuses and Mertens-type sums; asymptotic constants of
the growth law N(X) ~ (C/Gamma(B)) Lambda^X X^(B-1); exact distributions
and large-deviation rate functions of additive orbit statistics; and
seedable uniform orbit sampling. All counting is exact big-integer or
rational arithmetic; floating point (mpmath, fixed precision) appears
only where values are genuinely irrational.
"""

from orbitstat.kernels import BACKEND
from orbitstat.numtheory import PeriodicSequence
from orbitstat.systems import (
    FadPrime,
    FadSpec,
    SigmaSource,
    builtin_source,
    fad_source,
    fluctuation_spectrum,
    gm_matrix,
    growth_rate,
    sigma_table,
    source_from_json,
    spectrum_for,
    table_source,
    validate_dold,
)
from orbitstat.census import (
    OrbitCensus,
    build_census,
    euler_orbit_counts,
    orbit_counts,
    prime_counts,
)
from orbitstat.asymptotics import (
    AsymptoticConstants,
    ca_cesaro,
    ca_log_weighted_sum,
    cesaro_empirical,
    cesaro_exact_fad,
    constants_for,
    elliptic_constants,
    fad_class_mean,
    ga_constants,
    lambda1_analysis,
    predict_and_fit,
    qp_product,
)
from orbitstat.distribution import (
    BivariateCensus,
    DiscreteMeasure,
    WeightedAdditive,
    expected_w,
    joint_census,
    length_decay_weights,
    mgf,
    rho_measure,
    subset_weights,
    unit_weights,
    w_pmf,
)
from orbitstat.ldp import (
    RateFunction,
    chebyshev_bound,
    legendre_rate,
    poisson_rate,
    subset_rate,
    tail_report,
)
from orbitstat.sampler import (
    OrbitSample,
    OrbitSampler,
    RandomStream,
    TailEstimate,
    distinct_parts,
    monte_carlo_tail,
    sample_orbit,
    sampler_for,
    wilson_interval,
    write_samples_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "PeriodicSequence",
    "FadPrime",
    "FadSpec",
    "SigmaSource",
    "builtin_source",
    "fad_source",
    "fluctuation_spectrum",
    "gm_matrix",
    "growth_rate",
    "sigma_table",
    "source_from_json",
    "spectrum_for",
    "table_source",
    "validate_dold",
    "OrbitCensus",
    "build_census",
    "euler_orbit_counts",
    "orbit_counts",
    "prime_counts",
    "AsymptoticConstants",
    "ca_cesaro",
    "ca_log_weighted_sum",
    "cesaro_empirical",
    "cesaro_exact_fad",
    "constants_for",
    "elliptic_constants",
    "fad_class_mean",
    "ga_constants",
    "lambda1_analysis",
    "predict_and_fit",
    "qp_product",
    "BivariateCensus",
    "DiscreteMeasure",
    "WeightedAdditive",
    "expected_w",
    "joint_census",
    "length_decay_weights",
    "mgf",
    "rho_measure",
    "subset_weights",
    "unit_weights",
    "w_pmf",
    "RateFunction",
    "chebyshev_bound",
    "legendre_rate",
    "poisson_rate",
    "subset_rate",
    "tail_report",
    "OrbitSample",
    "RandomStream",
    "OrbitSampler",
    "TailEstimate",
    "distinct_parts",
    "sampler_for",
    "wilson_interval",
    "write_samples_csv",
    "monte_carlo_tail",
    "sample_orbit",
]
