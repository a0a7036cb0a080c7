"""In-memory span tracer for the traced benchmark run.

The tracer wraps pattgf's layer entry points from outside the package:
``install`` rebinds each entry point, in every loaded ``pattgf`` module
that holds it (and on the class, for methods), to a wrapper that records
one span per call.  Nothing under ``src/`` is edited.

A span is (name, start, end, parent span, item id).  Spans live in flat
arrays while the timed region runs and are written out once at the end.
A span's self time is its duration minus the time covered by its direct
child spans; calls nest strictly in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array

# (span name, module, attribute path).  Several entries may share a span
# name; their calls are then reported together.
LAYER_ENTRY_POINTS = [
    ("patterns.flatten", "pattgf.patterns", "flatten"),
    ("patterns.canonical_decompose", "pattgf.patterns", "canonical_decompose"),
    ("patterns.occurrence_count", "pattgf.patterns", "occurrence_count"),
    ("patterns.classify", "pattgf.patterns", "classify"),
    ("algebra.normalize", "pattgf.algebra", "RationalFunction._normalize"),
    ("algebra.polynomial_gcd", "pattgf.algebra", "polynomial_gcd"),
    ("algebra.poly_mul", "pattgf.algebra", "Polynomial.__mul__"),
    ("algebra.series_of", "pattgf.algebra", "series_of"),
    ("algebra.powerseries_mul", "pattgf.algebra", "PowerSeries.__mul__"),
    ("algebra.bivariate", "pattgf.algebra", "BivariateSeries.__mul__"),
    ("algebra.bivariate", "pattgf.algebra", "BivariateSeries.__truediv__"),
    ("algebra.bivariate", "pattgf.algebra", "BivariateSeries.sqrt"),
    ("chebyshev.check_identity", "pattgf.chebyshev", "check_identity"),
    ("chebyshev.r_func", "pattgf.chebyshev", "r_func"),
    ("engine.avoid_gf", "pattgf.engine", "avoid_gf"),
    ("engine.avoid", "pattgf.engine", "_avoid"),
    ("engine.once_gf", "pattgf.engine", "once_gf"),
    ("engine.phi_psi", "pattgf.engine", "phi_closed_series"),
    ("engine.phi_psi", "pattgf.engine", "psi_closed_series"),
    ("oracle.count", "pattgf.oracle", "count"),
    ("oracle.kernel", "pattgf.kernels", "count_constrained"),
    ("oracle.enumerate_avoiders", "pattgf.oracle", "enumerate_avoiders"),
    ("relations.verify_relation", "pattgf.relations", "verify_relation"),
    ("relations.series_cache_lookup", "pattgf.relations", "_oracle_series"),
    ("cli.main", "pattgf.cli", "main"),
]


class Tracer:
    """Span store plus the few counters that spans cannot express."""

    def __init__(self) -> None:
        self.enabled = False
        self.item_id = -1
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.raised: dict[str, dict[str, int]] = {}
        self.max_den_degree = 0
        self.catalan_demand = 0

    def wrap(self, span_name: str, fn, observe=None):
        ix = self._name_ix.setdefault(span_name, len(self._name_ix))
        if ix == len(self.names):
            self.names.append(span_name)
        tracer, clock = self, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = len(tracer.name)
            tracer.name.append(ix)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.item.append(tracer.item_id)
            tracer.end.append(0.0)
            stack.append(span)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts = tracer.raised.setdefault(span_name, {})
                counts[type(exc).__name__] = counts.get(type(exc).__name__, 0) + 1
                raise
            finally:
                tracer.end[span] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name."""
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i, ix in enumerate(self.name):
            entry = stats[self.names[ix]]
            entry["calls"] += 1
            entry["self_s"] += self.end[i] - self.start[i] - child[i]
        return stats

    def write(self, path) -> None:
        """Write every span, with times in nanoseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        payload = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "item"],
            "spans": [
                [ix, round((s - t0) * 1e9), round((e - t0) * 1e9), p, it]
                for ix, s, e, p, it in zip(self.name, self.start, self.end, self.parent, self.item)
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer) -> None:
    """Rebind every layer entry point to a traced wrapper."""
    import pattgf.cli  # noqa: F401  (loads every pattgf module)

    def den_degree(args, result):
        tracer.max_den_degree = max(tracer.max_den_degree, result[1].degree)

    def catalan_demand(args, result):
        n = args[0]
        tracer.catalan_demand += math.comb(2 * n, n) // (n + 1)

    observers = {"algebra.normalize": den_degree, "oracle.count": catalan_demand}
    modules = [m for name, m in sys.modules.items() if name == "pattgf" or name.startswith("pattgf.")]
    for span_name, module, attr in LAYER_ENTRY_POINTS:
        owner, name = _resolve(module, attr)
        observe = observers.get(span_name)
        if isinstance(owner, type):
            raw = owner.__dict__[name]
            if isinstance(raw, staticmethod):
                setattr(owner, name, staticmethod(tracer.wrap(span_name, raw.__func__, observe)))
            else:
                setattr(owner, name, tracer.wrap(span_name, raw, observe))
            continue
        original = getattr(owner, name)
        wrapper = tracer.wrap(span_name, original, observe)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
