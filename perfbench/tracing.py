"""Spans and counts recorded from outside the library.

The tracer replaces public functions of orbitstat with timing wrappers:
module functions in every orbitstat module namespace that binds them
(so `ldp.w_pmf` and `asymptotics.prime_counts` are traced as well as
their home modules), and methods on their classes. The call path is the
one the untraced run takes. Spans live in memory and are written out
once the run ends.
"""

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# (module, attribute) of every traced function; the span is named
# "<module>.<attribute>".
TRACED = (
    ("systems", "sigma_table"),
    ("systems", "validate_dold"),
    ("systems", "growth_rate"),
    ("census", "prime_counts"),
    ("kernels", "exp_logderiv_series"),
    ("kernels", "euler_product_series"),
    ("census", "OrbitCensus.build"),
    ("census", "OrbitCensus.write_csv"),
    ("distribution", "joint_census"),
    ("distribution", "expected_w"),
    ("distribution", "w_pmf"),
    ("distribution", "rho_measure"),
    ("asymptotics", "constants_for"),
    ("ldp", "tail_report"),
    ("ldp", "chebyshev_bound"),
    ("ldp", "legendre_rate"),
    ("sampler", "OrbitSampler.__init__"),
    ("sampler", "RandomStream.__init__"),
    ("sampler", "OrbitSampler.sample"),
    ("sampler", "distinct_parts"),
)

# counts summed over the traced repetitions (reported per repetition) and
# extremes taken over them
SUMMED = ("kernels.exp.mults_computed", "kernels.euler.mults_computed",
          "distribution.cells", "distribution.values", "sampler.randbelow")
EXTREMES = {"census.totals_bits_max": max, "census.crosscheck_degree": min}


def euler_mults(P, X):
    """Big-integer multiplications the Euler-product kernel performs
    (computed from the table sizes, not counted)."""
    total = 0
    for ell in range(1, X + 1):
        if ell < len(P) and P[ell]:
            total += sum(X - ell * m + 1 for m in range(1, X // ell + 1))
    return total


class Tracer:
    """Records (name, start_ns, end_ns, parent) spans and layer counts."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start_ns, end_ns, parent span index or -1]
        self.stack = []
        self.counts = Counter()
        self.extremes = {}
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, on_result=None):
        nid = self._name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [nid, perf_counter_ns(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def span(self, name, fn):
        """Run fn() inside a span of its own (the benchmark's operations)."""
        return self.wrap(name, fn)()

    def extreme(self, key, value):
        pick = EXTREMES[key]
        self.extremes[key] = value if key not in self.extremes else pick(self.extremes[key], value)

    # -- installing ------------------------------------------------------------

    def _hooks(self):
        def exp_done(args, _):
            X = args[1]
            self.counts["kernels.exp.mults_computed"] += X * (X + 1) // 2

        def euler_done(args, _):
            P, X = args
            self.counts["kernels.euler.mults_computed"] += euler_mults(P, X)
            self.extreme("census.crosscheck_degree", X)

        def build_done(_, cen):
            self.extreme("census.totals_bits_max", max(t.bit_length() for t in cen.totals))

        def joint_done(_, bc):
            self.counts["distribution.cells"] += len(bc.cells)
            self.counts["distribution.values"] += len(bc.values)

        return {
            "kernels.exp_logderiv_series": exp_done,
            "kernels.euler_product_series": euler_done,
            "census.OrbitCensus.build": build_done,
            "distribution.joint_census": joint_done,
        }

    def install(self):
        """Patch every traced function; uninstall() restores them."""
        hooks = self._hooks()
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            module = importlib.import_module(f"orbitstat.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch_method(getattr(module, cls_name), meth, name, hooks.get(name))
            else:
                self._patch_function(getattr(module, attr), name, hooks.get(name))
        self._count_calls(importlib.import_module("orbitstat.sampler").RandomStream, "randbelow",
                          "sampler.randbelow")

    def _patch_function(self, original, name, hook):
        wrapper = self.wrap(name, original, hook)
        for module_name, module in list(sys.modules.items()):
            if module_name != "orbitstat" and not module_name.startswith("orbitstat."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _patch_method(self, cls, meth, name, hook):
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self.wrap(name, raw.__func__, hook))
        else:
            wrapper = self.wrap(name, raw, hook)
        setattr(cls, meth, wrapper)
        self._undo.append((cls, meth, raw))

    def _count_calls(self, cls, meth, key):
        raw = cls.__dict__[meth]
        counts = self.counts

        @functools.wraps(raw)
        def counted(*args, **kwargs):
            counts[key] += 1
            return raw(*args, **kwargs)

        setattr(cls, meth, counted)
        self._undo.append((cls, meth, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def layer_totals(self, by_op=False):
        """{name: (self seconds, calls)}: a span's self time is its duration
        minus the durations of its direct children. With by_op the keys are
        (root span name, name), so each benchmark operation gets its own rows."""
        child = defaultdict(int)
        roots = []
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            roots.append(roots[parent] if parent >= 0 else self.names[nid])
        totals = defaultdict(lambda: [0, 0])
        for i, (nid, start, end, _) in enumerate(self.spans):
            name = self.names[nid]
            entry = totals[(roots[i], name) if by_op else name]
            entry[0] += end - start - child[i]
            entry[1] += 1
        return {key: (ns / 1e9, calls) for key, (ns, calls) in totals.items()}

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "names": self.names,
                       "spans": self.spans}, handle, separators=(",", ":"))
