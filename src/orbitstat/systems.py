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

from fractions import Fraction
from functools import cached_property

from orbitstat.numtheory import PeriodicSequence, Record, is_gcd_sequence, is_prime, lte_params, p_valuation
from orbitstat import polyops


def _integer(name, value):
    """value if it is an int (bool excluded), else ValueError naming the
    field: a float, string or bool is never truncated into an integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


class FadPrime(Record):
    """Local data at one prime: exponent sequences s and t (integers >= 0)."""
    __slots__ = ("p", "s", "t")

    def __init__(self, p, s, t):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


class FadSpec(Record):
    """Parameters (c, A, r, {(p, s_p, t_p)}) of a product-form sigma.

    The matrix factor |det(A^k - 1)| is present iff matrix is not None.
    Everything else reads the matrix through charpoly and split, each
    computed once, on first use. r defaults to the constant 1.
    """
    __slots__ = ("c", "matrix", "r", "primes", "__dict__")  # __dict__ holds the cached properties

    def __init__(self, c=1, matrix=None, r=None, primes=()):
        object.__setattr__(self, "c", _integer("c", c))
        if matrix is not None:
            matrix = tuple(tuple(_integer("matrix entry", x) for x in row) for row in matrix)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "r", PeriodicSequence.constant(1) if r is None else r)
        object.__setattr__(self, "primes", tuple(primes))

    @cached_property
    def charpoly(self):
        """det(xI - A) as ascending ints; 1 when there is no matrix."""
        return polyops.charpoly(self.matrix or ())

    @cached_property
    def split(self):
        """polyops.exact_split of charpoly, which spectrum_for and validate read."""
        return polyops.exact_split(self.charpoly)

    def validate(self):
        """Check realizability constraints; raises ValueError on violation."""
        if self.c < 1:
            raise ValueError("c must be a positive integer")
        if any(part.cyclotomic for part in self.split):
            raise ValueError("matrix has a root-of-unity eigenvalue; fold the resulting "
                             "periodic factor into r instead")
        if any(v.numerator <= 0 for v in self.r.values):
            raise ValueError("r must be strictly positive")
        # r is checked as a gcd-sequence only where the property is defined
        # (integer values); fractional r (legitimate, e.g. 1/25 entries
        # cancelling a determinant valuation) is exempt.
        if self.r.is_integral():
            if not is_gcd_sequence(self.r):
                raise ValueError("r is not a gcd-sequence")
        seen = set()
        for fp in self.primes:
            if not is_prime(fp.p):
                raise ValueError(f"{fp.p} is not prime")
            if fp.p in seen:
                raise ValueError(f"duplicate prime {fp.p}")
            seen.add(fp.p)
            for name, seq in (("s", fp.s), ("t", fp.t)):
                if not seq.is_integral():
                    raise ValueError(f"{name} values must be integers")
                if seq.period % fp.p == 0:
                    raise ValueError(f"period of {name} must be coprime to p={fp.p}")
                # s and t enter through p^s, p^t, whose gcd property is the
                # min property of the exponents: no power of p is formed
                if not is_gcd_sequence(seq, meet=min):
                    raise ValueError(f"p^{name} is not a gcd-sequence")
        return self


class SigmaSource(Record):
    """A sigma_k provider: one of the models in the module docstring."""
    __slots__ = ("kind", "fad", "table", "name", "params")

    def __init__(self, kind, fad=None, table=None, name=None, params=()):
        object.__setattr__(self, "kind", kind)  # "fad" | "table" | "builtin" (a named fad)
        object.__setattr__(self, "fad", fad)  # set for every kind but "table"
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", params)  # sorted (key, value) pairs for builtins

    def param(self, key):
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def describe(self):
        if self.kind == "builtin":
            # a list parameter is written as the shorthand reads it: [1,3]
            args = ",".join(
                f"{k}=[{','.join(map(str, v))}]" if isinstance(v, tuple) else f"{k}={v}"
                for k, v in self.params
            )
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


def fad_source(spec):
    """A validated product-form source."""
    return SigmaSource(kind="fad", fad=spec.validate())


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
    """Assemble sigma_k from c^k and a precomputed det(A^k - 1) (1 without a
    matrix) in integers: the r and p-adic denominators are collected and
    divided out once."""
    r = spec.r.at(k)
    num = ck * r.numerator * abs(det_value)
    if num == 0:
        return 0
    den = r.denominator
    for fp in spec.primes:
        # |k|_p^s p^(-t |k|_p^(-1)) = p^(-(v s + t p^v)) with v = v_p(k)
        v = p_valuation(k, fp.p)
        e = v * int(fp.s.at(k)) + int(fp.t.at(k)) * fp.p**v
        if e >= num.bit_length():  # p^e > num, and a huge e is never raised to
            raise ValueError(f"non-realizable parameters at k={k}")
        den *= fp.p**e  # e >= 0, since PeriodicSequence refuses negative s and t
    value, rem = divmod(num, den)
    if rem:
        raise ValueError(f"non-realizable parameters at k={k}")
    if value < 0:
        raise ValueError(f"negative sigma at k={k}")
    return value


def sigma_table(source, X):
    """[sigma_k]_{k=0..X} with index 0 a zero placeholder (bulk, exact).

    Matrix determinants come from the characteristic polynomial's power
    sums, so the cost per k is O(d^2) big-integer operations instead of a
    matrix power.
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
    dets = polyops.det_iterate_minus_identity(spec.charpoly, X)
    ck = 1
    for k in range(1, X + 1):
        ck *= spec.c
        out[k] = _fad_sigma_from_det(spec, k, ck, dets[k])
    return out


# ---------------------------------------------------------------------------
# growth rate


class GrowthRate(Record):
    """Lambda = exp limsup log(sigma_k)/k with an exact value when known."""
    __slots__ = ("value", "exact")

    def __init__(self, value, exact=None):
        object.__setattr__(self, "value", value)  # mpf
        object.__setattr__(self, "exact", exact)  # Fraction or None

    def __float__(self):
        return float(self.value)

    def inverse_power_sums(self, terms, precision):
        """Running sums S_k = sum_{j<=k} terms[j] Lambda^(-j), k = 0..len(terms)-1
        (terms[0] unused). For rational Lambda = num/den entry k is the
        integer T_k with S_k = T_k / num^k, from T_k = T_{k-1} num +
        terms[k] den^k; otherwise it is the mpf partial sum at precision
        plus 16 bits."""
        out = [0] * len(terms)
        if self.exact is not None:
            num, den = self.exact.numerator, self.exact.denominator
            acc = 0
            dpow = 1
            for k in range(1, len(terms)):
                dpow *= den
                acc = acc * num + terms[k] * dpow
                out[k] = acc
            return out
        import mpmath as mp

        with mp.workprec(precision + 16):
            acc = out[0] = mp.mpf(0)
            for k in range(1, len(terms)):
                if terms[k]:
                    acc += terms[k] * self.value ** (-k)
                out[k] = acc
        return out


def growth_rate(source, precision=128):
    """Growth rate Lambda of sigma_k at the given binary precision.

    Product forms read the rate of their spectrum_for split: c times the
    product of |root| > 1 of the characteristic polynomial (sampling
    sigma_k^(1/k) would be polluted by the r and p-adic factors, which are
    subexponential). When every root that is not a root of unity is an
    integer the product is exact; otherwise it is rooted numerically.
    Tables get an empirical tail estimate, with no exact value.
    """
    if source.fad is not None:
        return spectrum_for(source, precision).rate
    # raw table: empirical estimate from the tail
    table = source.table
    if len(table) < 8:
        raise ValueError("table too short for a growth estimate (need >= 8)")
    import mpmath as mp

    with mp.workprec(precision + 16):
        best = mp.mpf(1)
        for k in range(len(table) // 2, len(table)):
            s = table[k]
            if s > 0:
                best = max(best, mp.mpf(s) ** (mp.mpf(1) / (k + 1)))
        v = +best
    return GrowthRate(value=v)


# ---------------------------------------------------------------------------
# fluctuation spectrum


class SpectrumReport(Record):
    """Unit-circle eigenvalue data of the matrix part.

    contains_root_of_unity flags a root of unity among the eigenvalues,
    certified by exact cyclotomic divisibility (never by numerics). The
    other unit-circle eigenvalues, each certified on the circle, come in m
    conjugate pairs e^(+-i theta_j), 0 < theta_j < pi, with unit_angles the
    theta_j ascending.
    cesaro_exact_fad refuses a root of unity, certifies m <= 1 and refuses
    m >= 2.
    """
    __slots__ = ("rate", "unit_angles", "contains_root_of_unity")

    def __init__(self, rate, unit_angles, contains_root_of_unity):
        object.__setattr__(self, "rate", rate)  # c * product of |roots| > 1, as growth_rate returns it
        object.__setattr__(self, "unit_angles", unit_angles)
        object.__setattr__(self, "contains_root_of_unity", contains_root_of_unity)

    @property
    def m(self):
        return len(self.unit_angles)

    @property
    def lam(self):
        return self.rate.value


def spectrum_for(source, precision=128):
    """SpectrumReport for a source's matrix part (m = 0 when there is none)
    from one numeric pass, polyops.root_split, over its FadSpec's split.
    rate is c times the product of |root| > 1, the GrowthRate growth_rate
    returns for a product form."""
    import mpmath as mp

    spec = fad_spec_for(source)
    split = polyops.root_split(spec.split, precision)
    with mp.workprec(precision + 16):
        if split.exact is None:
            rate = GrowthRate(value=+(spec.c * split.outside))
        else:
            rate = GrowthRate(value=mp.mpf(spec.c * split.exact), exact=Fraction(spec.c * split.exact))
    with mp.workprec(precision + 48):
        angles = tuple(sorted(+mp.arg(root) for root in split.unit_roots))
    return SpectrumReport(rate=rate, unit_angles=angles, contains_root_of_unity=bool(split.cyclotomic))


# ---------------------------------------------------------------------------
# Dold validation


class DoldReport(Record):
    __slots__ = ("ok", "first_failure", "primes")

    def __init__(self, ok, first_failure=None, primes=None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "first_failure", first_failure)  # (ell, reason)
        object.__setattr__(self, "primes", primes)  # P_1..P_X when ok


def validate_dold(sigma):
    """Check the Dold integrality condition on a prefix sigma_1..sigma_X.

    sigma_ell = sum_{d | ell} d P_d, so for every ell <= X the Mobius sum
    sigma_ell - sum_{d | ell, d < ell} d P_d must be divisible by ell with
    non-negative quotient P_ell (the count of prime orbits of length ell).
    One sieve finds them: once P_ell is known, ell P_ell is added to the
    running sum of every multiple of ell. This is the package's one
    inversion: a passing report carries P_1..P_X.
    """
    sigma = list(sigma)
    X = len(sigma)
    if X < 1:
        raise ValueError("need at least sigma_1")
    below = [0] * (X + 1)  # below[k] = sum_{d | k, d < k} d P_d so far
    primes = []
    for ell in range(1, X + 1):
        total = sigma[ell - 1] - below[ell]
        q, r = divmod(total, ell)
        if r:
            return DoldReport(False, (ell, f"Mobius sum {total} not divisible by {ell}"))
        if q < 0:
            return DoldReport(False, (ell, f"negative orbit count {q}"))
        primes.append(q)
        if q:
            for k in range(2 * ell, X + 1, ell):
                below[k] += total
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
    # an int takes Fraction's fast path; str() reads the rest ("1/25", 0.5)
    values = tuple(Fraction(v if type(v) is int else str(v)) for v in _field(obj, "values", list, f"{name}."))
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
