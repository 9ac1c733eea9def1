"""Spans and counters around the engine's public functions, from outside.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``dlaplace`` module (``cli.solve_ivp`` and ``solver.solve_ivp`` are
separate bindings of one function) and the traced methods on their classes;
``uninstall`` puts the originals back.  Each traced call records a span
(name, start, end, parent span, request id) in memory, except
``QuadExt.__init__``, which runs tens of thousands of times per request and
is only counted and timed.  Self time is a call's duration minus the time
of the traced calls made inside it, summed per layer.

A wrapper's own work is timed as part of the call it wraps, and
``wrapper_costs`` measures what one wrapper adds to a call on a no-op.
Inclusive and self times subtract that cost for the call and for every
traced call beneath it, so they estimate the untraced times; spans keep
the raw clock readings.  The observers that read argument sizes run inside
the timed span and are not subtracted.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from fractions import Fraction

LAYERS = ("cli", "dsl", "solver", "sequences", "transforms", "polys",
          "exact", "numeric")

# (owner module, attribute or Class.method, span name, layer, keeps spans)
TARGETS = (
    ("dlaplace.cli", "main", "cli.main", "cli", True),
    ("dlaplace.solver", "SolutionReport.to_json_dict", "cli.render", "cli", True),
    ("dlaplace.numeric", "CheckReport.to_json_dict", "cli.render", "cli", True),
    ("dlaplace.dsl", "parse_program", "dsl.parse", "dsl", True),
    ("dlaplace.solver", "solve_ivp", "solver.solve_ivp", "solver", True),
    ("dlaplace.solver", "transform_of", "solver.transform_of", "solver", True),
    ("dlaplace.solver", "verify_solution", "solver.verify_solution", "solver", True),
    ("dlaplace.solver", "RecursiveSequence.__call__", "solver.recursion", "solver", True),
    ("dlaplace.sequences", "inverse_transform", "sequences.inverse", "sequences", True),
    ("dlaplace.sequences", "ClosedFormSequence.__call__", "sequences.eval", "sequences", True),
    ("dlaplace.transforms", "n_power", "transforms.n_power", "transforms", True),
    ("dlaplace.polys", "poly_gcd", "polys.gcd", "polys", True),
    ("dlaplace.polys", "factor_roots", "polys.factor_roots", "polys", True),
    ("dlaplace.polys", "partial_fractions", "polys.partial_fractions", "polys", True),
    ("dlaplace.exact", "QuadExt.__init__", "exact.quadext", "exact", False),
    ("dlaplace.numeric", "check_closed_form_pair", "numeric.check", "numeric", True),
    ("dlaplace.numeric", "growth_bound", "numeric.growth_bound", "numeric", True),
    ("dlaplace.numeric", "series_eval", "numeric.series", "numeric", True),
)


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Wrappers, their spans and their per-name and per-layer totals."""

    def __init__(self, costs: dict[bool, float] | None = None) -> None:
        # seconds one wrapper adds to a call, keyed by "keeps a span"
        self.costs = costs or {False: 0.0, True: 0.0}
        self.spans: list = []
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.sizes = {"exact.radicand_max": 0, "polys.den_degree_max": 0,
                      "polys.coeff_bits_max": 0, "polys.pf_terms": 0,
                      "numeric.series_terms": 0}
        self.request = -1
        # [span id, time in traced children, wrapper cost beneath]
        self._stack: list = []
        self._depth: dict[str, int] = {}
        self._restore: list = []

    # -- observers of arguments and results, keyed by span name
    def _observe(self, name, args, result) -> None:
        sizes = self.sizes
        if name == "exact.quadext":
            sizes["exact.radicand_max"] = max(sizes["exact.radicand_max"],
                                              args[0].radicand)
        elif name == "polys.partial_fractions":
            quotient = args[0]
            sizes["polys.pf_terms"] += len(result)
            sizes["polys.den_degree_max"] = max(sizes["polys.den_degree_max"],
                                                quotient.den.degree)
            bits = max(max(_bits(c.rational_part), _bits(c.radical_part))
                       for c in quotient.num.coefficients
                       + quotient.den.coefficients)
            sizes["polys.coeff_bits_max"] = max(sizes["polys.coeff_bits_max"],
                                                bits)
        elif name == "numeric.series":
            sizes["numeric.series_terms"] += args[2]

    def _wrap(self, fn, name: str, layer: str, keep_span: bool):
        stack, depth, calls = self._stack, self._depth, self.calls
        inclusive, self_time, spans = self.inclusive, self.self_time, self.spans
        clock = time.perf_counter
        own = self.costs[keep_span]
        observed = name in ("exact.quadext", "polys.partial_fractions",
                            "numeric.series")
        calls.setdefault(name, 0)
        inclusive.setdefault(name, 0.0)
        depth.setdefault(name, 0)

        def traced(*args, **kwargs):
            start = clock()
            parent = stack[-1] if stack else None
            parent_id = parent[0] if parent else -1
            span_id = len(spans) if keep_span else parent_id
            if keep_span:
                spans.append(None)
            frame = [span_id, 0.0, 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
                if observed:
                    self._observe(name, args, result)
            finally:
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                end = clock()
                elapsed = end - start
                if not depth[name]:
                    inclusive[name] += elapsed - own - frame[2]
                self_time[layer] += elapsed - frame[1] - own
                if parent is not None:
                    parent[1] += elapsed
                    parent[2] += own + frame[2]
                if keep_span:
                    spans[span_id] = (name, start, end, parent_id,
                                      self.request)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "dlaplace" or key.startswith("dlaplace.")]
        for owner, attr, name, layer, keep_span in TARGETS:
            module = sys.modules[owner]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._set(cls, method, self._wrap(original, name, layer,
                                                  keep_span))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, layer, keep_span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def counts(self) -> dict:
        """Everything that must repeat exactly for the same requests."""
        return {"calls": dict(self.calls), "sizes": dict(self.sizes)}

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "request": request}) + "\n")


def wrapper_costs(calls: int = 20000, repeats: int = 5) -> dict[bool, float]:
    """Seconds one wrapper adds to a call, with and without a kept span:
    the median over `repeats` of (wrapped - bare) / `calls` for a no-op
    called from inside a traced parent."""
    def noop(value):
        return value

    def loop(fn):
        start = time.perf_counter()
        for index in range(calls):
            fn(index)
        return time.perf_counter() - start

    costs = {}
    for keep_span in (False, True):
        samples = []
        for _ in range(repeats):
            tracer = Tracer()
            inner = tracer._wrap(noop, "calibrate.inner", "cli", keep_span)
            outer = tracer._wrap(loop, "calibrate.outer", "cli", True)
            samples.append((outer(inner) - loop(noop)) / calls)
        costs[keep_span] = max(0.0, statistics.median(samples))
    return costs
