"""Fixed-point sequence sources and their spectral data.

A source produces the sequence sigma_k = number of fixed points of the
k-th iterate. Two models:

  * product form - c^k |det(A^k - 1)| r_k prod_p |k|_p^{s_{p,k}}
                   p^{-t_{p,k} |k|_p^{-1}} with periodic gcd-sequence data
                   (a FadSpec),
  * table        - an explicit prefix sigma_1..sigma_X.

The worked examples FF(q), E(p,n), GA, GM and periodic(values) are named
product forms: builtin_source attaches their FadSpec and keeps the name and
parameters only for display and for the closed-form asymptotic constants.

Also here: growth rate Lambda, unit-circle eigenvalue angles of the matrix
part (which control the oscillatory factor in Cesaro means), and the Dold
integrality check that any realizable sigma must satisfy.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import mpmath as mp

from orbitstat.numtheory import (
    PeriodicSequence,
    divisors,
    is_gcd_sequence,
    is_prime,
    lte_params,
    mobius,
    p_valuation,
)
from orbitstat import polyops


def _integer(name, value):
    """value if it is an int (bool excluded), else ValueError naming the
    field: a float, string or bool is never truncated into an integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class FadPrime:
    """Local data at one prime: exponent sequences s and t (integers >= 0)."""

    p: int
    s: PeriodicSequence
    t: PeriodicSequence


@dataclass(frozen=True)
class FadSpec:
    """Parameters (c, A, r, {(p, s_p, t_p)}) of a product-form sigma.

    The matrix factor |det(A^k - 1)| is present iff matrix is not None.
    """

    c: int = 1
    matrix: tuple = None
    r: PeriodicSequence = field(default_factory=lambda: PeriodicSequence.constant(1))
    primes: tuple = ()

    def __post_init__(self):
        _integer("c", self.c)
        if self.matrix is not None:
            matrix = tuple(tuple(_integer("matrix entry", x) for x in row) for row in self.matrix)
            object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "primes", tuple(self.primes))

    def validate(self):
        """Check realizability constraints; raises ValueError on violation."""
        if self.c < 1:
            raise ValueError("c must be a positive integer")
        if self.matrix is not None:
            d = len(self.matrix)
            if any(len(row) != d for row in self.matrix):
                raise ValueError("matrix must be square")
            if polyops.cyclotomic_divisors(polyops.charpoly(self.matrix)):
                raise ValueError(
                    "matrix has a root-of-unity eigenvalue; fold the "
                    "resulting periodic factor into r instead"
                )
        if any(v <= 0 for v in self.r.values):
            raise ValueError("r must be strictly positive")
        # r is checked as a gcd-sequence only where the property is defined
        # (integer values); fractional r (legitimate, e.g. 1/25 entries
        # cancelling a determinant valuation) is exempt.
        window = 2 * self.r.period
        if self.r.is_integral(window):
            if not is_gcd_sequence(self.r, window):
                raise ValueError("r is not a gcd-sequence")
        seen = set()
        for fp in self.primes:
            if not is_prime(fp.p):
                raise ValueError(f"{fp.p} is not prime")
            if fp.p in seen:
                raise ValueError(f"duplicate prime {fp.p}")
            seen.add(fp.p)
            for name, seq in (("s", fp.s), ("t", fp.t)):
                if not seq.is_integral(seq.period):
                    raise ValueError(f"{name} values must be integers")
                if seq.period % fp.p == 0:
                    raise ValueError(f"period of {name} must be coprime to p={fp.p}")
                # s and t enter through p^s, p^t; the gcd-sequence property
                # for exponent sequences is the min property, i.e. the gcd
                # property of the prime-power values.
                powers = PeriodicSequence(tuple(Fraction(fp.p) ** int(v) for v in seq.values))
                if not is_gcd_sequence(powers, 2 * seq.period):
                    raise ValueError(f"p^{name} is not a gcd-sequence")
        return self


@dataclass(frozen=True)
class SigmaSource:
    """A sigma_k provider: one of the models in the module docstring."""

    kind: str  # "fad" | "table" | "builtin" (a named fad)
    fad: FadSpec = None  # set for every kind but "table"
    table: tuple = None
    name: str = None
    params: tuple = ()  # sorted (key, value) pairs for builtins

    def param(self, key):
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def describe(self):
        if self.kind == "builtin":
            args = ",".join(f"{k}={v}" for k, v in self.params)
            return f"builtin:{self.name}" + (f",{args}" if args else "")
        if self.kind == "table":
            return f"table[{len(self.table)}]"
        return "fad"


BUILTIN_NAMES = ("FF", "E", "GA", "GM", "periodic")

# Defining polynomial of the degree-4 toral endomorphism example: a Salem
# polynomial with one reciprocal pair of complex eigenvalues on the unit
# circle (2 cos theta = (3 - sqrt 5)/2). The exact roots rule out the
# alternative printed reading cos theta = (3 - sqrt 5)/8.
GM_POLY = (1, -3, 3, -3, 1)


def gm_matrix():
    return polyops.companion_matrix(list(GM_POLY))


def fad_source(spec, validate=True):
    if validate:
        spec.validate()
    return SigmaSource(kind="fad", fad=spec)


def table_source(values):
    vals = tuple(_integer("table entry", v) for v in values)
    if any(v < 0 for v in vals):
        raise ValueError("table entries must be >= 0")
    if not vals:
        raise ValueError("empty table")
    return SigmaSource(kind="table", table=vals)


def builtin_source(name, **params):
    """Construct a named example source: a product form with a name.

    FF(q): sigma_k = q^k (Frobenius on a finite field of q elements).
    E(p,n): sigma_k = (n^k-1)^2 |n^k-1|_p (elliptic curve reductions flavor).
    GA: sigma_k = 2^(k - |k|_2^(-1)) (additive cellular automaton).
    GM: sigma_k = |det(A^k-1)| |det(A^k-1)|_5 for the Salem companion matrix.
    periodic(values): sigma_k cycles through the given positive integers.

    The attached FadSpec is not validated: periodic values may be 0, which
    FadSpec.validate rejects as an r value.
    """
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin {name!r}")
    required = {"FF": ("q",), "E": ("p", "n"), "periodic": ("values",)}.get(name, ())
    for key in required:
        if key not in params:
            raise ValueError(f"builtin {name} requires parameter {key}")
    zero = PeriodicSequence.constant(0)
    if name == "FF":
        q = _integer("q", params.pop("q"))
        if q < 2:
            raise ValueError("q >= 2 required")
        items = (("q", q),)
        spec = FadSpec(c=q)
    elif name == "E":
        p = _integer("p", params.pop("p"))
        n = _integer("n", params.pop("n"))
        if p == 2 or not is_prime(p):
            raise ValueError("p must be an odd prime")
        if n < 2:
            raise ValueError("n >= 2 required")
        items = (("n", n), ("p", p))
        matrix = ((n, 0), (0, n))
        if n % p == 0:
            spec = FadSpec(matrix=matrix)
        else:
            # |n^k - 1|_p = p^(-e) |k|_p when d | k, else 1 (lifting the exponent)
            d, e = lte_params(n, p)
            r_vals = [Fraction(1)] * d
            r_vals[d - 1] = Fraction(1, p**e)
            s_vals = [0] * d
            s_vals[d - 1] = 1
            spec = FadSpec(
                matrix=matrix,
                r=PeriodicSequence(tuple(r_vals)),
                primes=(FadPrime(p, PeriodicSequence(tuple(s_vals)), zero),),
            )
    elif name == "periodic":
        values = params.pop("values")
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"periodic values must be a list, got {values!r}")
        values = tuple(_integer("periodic value", v) for v in values)
        if not values or any(v < 0 for v in values):
            raise ValueError("periodic values must be non-negative integers")
        items = (("values", values),)
        spec = FadSpec(r=PeriodicSequence(values))
    elif name == "GA":
        items = ()
        spec = FadSpec(c=2, primes=(FadPrime(2, zero, PeriodicSequence.constant(1)),))
    else:  # GM
        items = ()
        spec = FadSpec(
            matrix=gm_matrix(),
            r=PeriodicSequence((1, 1, Fraction(1, 25))),
            primes=(FadPrime(5, PeriodicSequence((0, 0, 4)), zero),),
        )
    if params:
        raise ValueError(f"unexpected parameters {sorted(params)} for {name}")
    return SigmaSource(kind="builtin", fad=spec, name=name, params=items)


def fad_spec_for(source):
    """The FadSpec of a product-form or builtin source; raw tables raise."""
    if source.fad is None:
        raise ValueError("no FAD form for a raw table")
    return source.fad


# ---------------------------------------------------------------------------
# sigma evaluation


def _fad_sigma_from_det(spec, k, ck, det_value):
    """Assemble sigma_k from c^k and a precomputed det(A^k - 1) (None if no
    matrix) in integers: the r and p-adic denominators are collected and
    divided out once."""
    if det_value == 0:
        return 0
    r = spec.r.at(k)
    num = ck.numerator * r.numerator
    den = ck.denominator * r.denominator
    if det_value is not None:
        num *= abs(det_value)
    for fp in spec.primes:
        # |k|_p^s p^(-t |k|_p^(-1)) = p^(-(v s + t p^v)) with v = v_p(k)
        v, _ = p_valuation(k, fp.p)
        e = v * int(fp.s.at(k)) + int(fp.t.at(k)) * fp.p**v
        if e >= 0:
            den *= fp.p**e
        else:
            num *= fp.p**-e
    value, rem = divmod(num, den)
    if rem:
        raise ValueError(f"non-realizable parameters at k={k}")
    if value < 0:
        raise ValueError(f"negative sigma at k={k}")
    return value


def sigma_eval(source, k):
    """Exact sigma_k for any source; k >= 1."""
    if k < 1:
        raise ValueError("k >= 1 required")
    if source.kind == "table":
        if k > len(source.table):
            raise ValueError(f"table covers only k <= {len(source.table)}")
        return source.table[k - 1]
    spec = source.fad
    det_value = None
    if spec.matrix is not None:
        A = [list(row) for row in spec.matrix]
        M = polyops.mat_sub(polyops.mat_pow(A, k), polyops.mat_identity(len(A)))
        det_value = polyops.int_det(M)
    return _fad_sigma_from_det(spec, k, spec.c**k, det_value)


def sigma_table(source, X):
    """[sigma_k]_{k=0..X} with index 0 a zero placeholder (bulk, exact).

    Matrix determinants run through exterior-power trace recurrences, so the
    cost per k is a handful of big-integer operations instead of a matrix
    power.
    """
    if X < 0:
        raise ValueError("X >= 0 required")
    out = [0] * (X + 1)
    if X == 0:
        return out
    if source.kind == "table":
        if X > len(source.table):
            raise ValueError(f"table covers only k <= {len(source.table)}")
        out[1 : X + 1] = source.table[:X]
        return out
    spec = source.fad
    dets = None
    if spec.matrix is not None:
        dets = polyops.det_iterate_minus_identity([list(row) for row in spec.matrix], X)
    ck = 1
    for k in range(1, X + 1):
        ck *= spec.c
        out[k] = _fad_sigma_from_det(spec, k, ck, dets[k] if dets is not None else None)
    return out


# ---------------------------------------------------------------------------
# growth rate


@dataclass(frozen=True)
class GrowthRate:
    """Lambda = exp limsup log(sigma_k)/k with an exact value when known."""

    value: object  # mpf
    exact: Fraction = None
    low_confidence: bool = False

    def __float__(self):
        return float(self.value)


def _split_rate(c, split, precision):
    """GrowthRate c * prod |root| > 1 from a polyops.root_split result."""
    with mp.workprec(precision + 16):
        if split.exact is None:
            return GrowthRate(value=+(c * split.outside))
        return GrowthRate(value=mp.mpf(c * split.exact), exact=Fraction(c * split.exact))


def growth_rate(source, precision=128):
    """Growth rate Lambda of sigma_k at the given binary precision.

    Product forms use c times the product of |root| > 1 of the
    characteristic polynomial (sampling sigma_k^(1/k) would be polluted by
    the r and p-adic factors, which are subexponential). When every root
    that is not a root of unity is an integer the product is exact;
    otherwise it is rooted numerically. Tables get an empirical tail
    estimate flagged low-confidence.
    """
    spec = source.fad
    if spec is not None:
        split = polyops.root_split(polyops.charpoly(spec.matrix or ()), precision)
        return _split_rate(spec.c, split, precision)
    # raw table: empirical estimate from the tail
    table = source.table
    if len(table) < 8:
        raise ValueError("table too short for a growth estimate (need >= 8)")
    with mp.workprec(precision + 16):
        best = mp.mpf(1)
        for k in range(len(table) // 2, len(table)):
            s = table[k]
            if s > 0:
                best = max(best, mp.mpf(s) ** (mp.mpf(1) / (k + 1)))
        v = +best
    return GrowthRate(value=v, low_confidence=True)


# ---------------------------------------------------------------------------
# fluctuation spectrum


@dataclass(frozen=True)
class SpectrumReport:
    """Unit-circle eigenvalue data of the matrix part.

    m conjugate pairs e^(+-i theta_j), 0 < theta_j < pi, one record per
    pair: unit_angles[j] is theta_j and rational_angles[j] is not None iff
    theta_j is a rational multiple of pi, certified by exact cyclotomic
    divisibility (never by numerics). cesaro_exact_fad certifies m <= 1
    and refuses m >= 2.
    """

    rate: GrowthRate  # c * product of |roots| > 1, as growth_rate returns it
    unit_angles: tuple
    rational_angles: tuple  # (num, den) pairs meaning theta = 2*pi*num/den, or None
    contains_root_of_unity: bool

    @property
    def m(self):
        return len(self.unit_angles)

    @property
    def lam(self):
        return self.rate.value


def fluctuation_spectrum(A, precision=128, c=1):
    """Unit-circle eigenvalues and growth rate of an integer matrix (None
    for none), both from one exact-first root split of its characteristic
    polynomial.

    Cyclotomic factors are divided out exactly and flagged as rational
    angles; the other unit-circle eigenvalues come from the numerically
    rooted gcd of the remaining polynomial with its reversal (they come in
    reciprocal-conjugate pairs). rate is the GrowthRate growth_rate returns
    for the same matrix and c; lam is its value.
    """
    split = polyops.root_split(polyops.charpoly(A or ()), precision)
    angles = []  # (theta mpf, (num, den) | None)
    with mp.workprec(precision + 48):
        for n in split.cyclotomic:
            for num in range(1, (n + 1) // 2):  # 0 < theta = 2 pi num/n < pi
                if gcd(num, n) == 1:
                    angles.append((+(2 * mp.pi * num / n), (num, n)))
        angles.extend((+mp.arg(root), None) for root in split.unit_roots)
        angles.sort(key=lambda a: a[0])
    return SpectrumReport(
        rate=_split_rate(c, split, precision),
        unit_angles=tuple(a[0] for a in angles),
        rational_angles=tuple(a[1] for a in angles),
        contains_root_of_unity=bool(split.cyclotomic),
    )


def spectrum_for(source, precision=128):
    """SpectrumReport for a source's matrix part (m = 0 when there is none)."""
    spec = fad_spec_for(source)
    return fluctuation_spectrum(spec.matrix, precision=precision, c=spec.c)


# ---------------------------------------------------------------------------
# Dold validation


@dataclass(frozen=True)
class DoldReport:
    ok: bool
    first_failure: tuple = None  # (ell, reason)
    primes: tuple = None  # P_1..P_X when ok

    def __bool__(self):
        return self.ok


def validate_dold(sigma):
    """Check the Dold integrality condition on a prefix sigma_1..sigma_X.

    For every ell <= X the Mobius-transformed sum sum_{n | ell} mu(ell/n)
    sigma_n must be divisible by ell with non-negative quotient P_ell (the
    count of prime orbits of length ell). This is the package's one Mobius
    pass: a passing report carries P_1..P_X.
    """
    sigma = list(sigma)
    X = len(sigma)
    if X < 1:
        raise ValueError("need at least sigma_1")
    primes = []
    for ell in range(1, X + 1):
        total = 0
        for n in divisors(ell):
            total += mobius(ell // n) * sigma[n - 1]
        q, r = divmod(total, ell)
        if r:
            return DoldReport(False, (ell, f"Mobius sum {total} not divisible by {ell}"))
        if q < 0:
            return DoldReport(False, (ell, f"negative orbit count {q}"))
        primes.append(q)
    return DoldReport(True, None, tuple(primes))


# ---------------------------------------------------------------------------
# JSON ingestion (field names are part of the CLI contract)

# the JSON names of the Python types json.load returns
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def _shaped(name, value, kind):
    """value if it is of type kind (dict, list or str), else ValueError
    naming the field and the JSON type found."""
    if not isinstance(value, kind):
        found = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"{name} must be a JSON {_JSON_TYPES[kind]}, got {found}")
    return value


def _field(obj, name, kind, prefix="", optional=False):
    """obj[name], the field prefix + name, checked by _shaped (kind object
    accepts any value); a missing or null optional field reads as None."""
    if optional and obj.get(name) is None:
        return None
    if name not in obj:
        raise ValueError(f"{prefix}{name} is required")
    return _shaped(prefix + name, obj[name], kind)


def _periodic_from_json(obj, name):
    values = tuple(Fraction(str(v)) for v in _field(obj, "values", list, f"{name}."))
    seq = PeriodicSequence(values)
    period = obj.get("period", seq.period)
    if period != seq.period:
        raise ValueError("period field disagrees with values length")
    return seq


def _prime_from_json(obj, name):
    _shaped(name, obj, dict)
    return FadPrime(
        p=_integer("p", _field(obj, "p", object, f"{name}.")),
        s=_periodic_from_json(_field(obj, "s", dict, f"{name}."), f"{name}.s"),
        t=_periodic_from_json(_field(obj, "t", dict, f"{name}."), f"{name}.t"),
    )


def source_from_json(obj):
    """Build a SigmaSource from the parsed JSON system description.

    A description of the wrong shape (a field missing, or of the wrong JSON
    type) raises ValueError naming the field, as an invalid value does."""
    kind = _shaped("the top level", obj, dict).get("type")
    if kind == "table":
        return table_source(_field(obj, "sigma", list))
    if kind == "builtin":
        name = _field(obj, "name", str)
        params = {k: v for k, v in obj.items() if k not in ("type", "name")}
        return builtin_source(name, **params)
    if kind == "fad":
        # an empty matrix, r or primes reads as absent
        matrix = _field(obj, "matrix", list, optional=True)
        r = _field(obj, "r", dict, optional=True)
        primes = _field(obj, "primes", list, optional=True) or ()
        spec = FadSpec(
            c=obj.get("c", 1),
            matrix=tuple(tuple(_shaped(f"matrix[{i}]", row, list)) for i, row in enumerate(matrix))
            if matrix
            else None,
            r=_periodic_from_json(r, "r") if r else PeriodicSequence.constant(1),
            primes=tuple(_prime_from_json(e, f"primes[{i}]") for i, e in enumerate(primes)),
        )
        return fad_source(spec)
    raise ValueError(f"unknown system type {kind!r}")
