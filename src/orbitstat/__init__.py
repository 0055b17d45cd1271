"""Exact orbit-decomposition statistics of discrete dynamical systems.

Counting sequences sigma_k (periodic points), prime orbit counts,
cumulative orbit censuses and Mertens-type sums; asymptotic constants of
the growth law N(X) ~ (C/Gamma(B)) Lambda^X X^(B-1); exact distributions
and large-deviation rate functions of additive orbit statistics; and
seedable uniform orbit sampling. All counting is exact big-integer or
rational arithmetic; floating point (mpmath, fixed precision) appears
only where values are genuinely irrational.

The public names load lazily (PEP 562): `import orbitstat` imports no
submodule, and the first read of a name, or of a library submodule such
as `orbitstat.kernels`, imports its home module and binds the value in
this namespace, so every later read is a plain attribute lookup. mpmath
is imported only by the code that computes a real, and numpy only by the
sampler's first random stream.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "kernels": ("BACKEND",),
    "numtheory": ("PeriodicSequence",),
    "systems": (
        "FadPrime",
        "FadSpec",
        "SigmaSource",
        "builtin_source",
        "fad_source",
        "gm_matrix",
        "growth_rate",
        "sigma_table",
        "source_from_json",
        "spectrum_for",
        "table_source",
        "validate_dold",
    ),
    "census": ("OrbitCensus", "build_census", "prime_counts"),
    "asymptotics": (
        "AsymptoticConstants",
        "ca_log_weighted_sum",
        "cesaro_empirical",
        "cesaro_exact_fad",
        "constants_for",
        "fad_class_mean",
        "growth_law",
        "lambda1_analysis",
        "qp_product",
    ),
    "distribution": (
        "BivariateCensus",
        "DiscreteMeasure",
        "WeightedAdditive",
        "expected_w",
        "joint_census",
        "rho_measure",
        "subset_weights",
        "unit_weights",
        "w_pmf",
    ),
    "ldp": ("RateFunction", "chebyshev_bound", "legendre_rate", "poisson_rate", "subset_rate", "tail_report"),
    "sampler": (
        "OrbitSample",
        "OrbitSampler",
        "RandomStream",
        "distinct_parts",
        "sample_orbit",
        "sampler_for",
        "write_samples_csv",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "polyops"}

__all__ = list(_HOMES)


def __getattr__(name):
    if name in _HOMES:
        value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
