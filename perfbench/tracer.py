"""Span tracer for the ``nhc`` package, installed from outside it.

``Tracer.install`` replaces every public function of each ``nhc`` module,
in every namespace that holds it, with a wrapper that records a span
(id, parent id, operation id, name, start, end).  That covers the names a
module imports from another with ``from .x import ...`` and the package's
own re-exports.  Module code looks its globals up at call time, so calls
between the package's own functions are traced as well; private helpers
stay inside their caller's span.  The package source is not modified.

Every call updates per-name totals (calls, time, self time = time minus
child spans) and a few size counters taken from call arguments.  Spans
themselves are kept in memory up to a cap and written out by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from fractions import Fraction

import nhc
from nhc.exactarith import floor_rational_root, iroot
from nhc.heights import box

MODULES = ("exactarith", "heights", "cuspidal", "families", "cm", "asymptotics", "oracle", "cli")

# Spans reported as <name>.calls and <name>.self_s.
CALL_SELF = (
    "exactarith.iroot",
    "exactarith.floor_rational_root",
    "exactarith.moebius_sieve",
    "exactarith.count_kfree",
    "exactarith.factorize",
    "heights.box",
    "cuspidal.cubic_param",
    "families.count_representatives",
    "families.count_curves",
    "families.param_bound",
    "families.j_invariant_data",
    "families.curve_from_parameter",
    "families.twist_decompose",
    "cm.count_cm_representatives",
    "cm.count_cm_curves",
)
MAIN_TERMS = (
    "asymptotics.main_term_curves",
    "asymptotics.main_term_representatives",
    "asymptotics.main_term_curves_with_j",
    "asymptotics.main_term_representatives_with_j",
    "asymptotics.cm_asymptotic",
    "asymptotics.cm_curves_asymptotic",
)
TABLES = ("asymptotics.coefficient_table", "asymptotics.error_table")


def _new_counters() -> dict:
    return {
        "sieve_entries": 0,
        "sieve_limits": set(),
        "factorize_max_digits": 0,
        "cubic_inputs": set(),
        "dmax_max": 0,
        "census_points": 0,
    }


# Counter hooks: they read the call's arguments with the unwrapped
# primitives and run inside the span of the call they describe.
def _on_moebius_sieve(c, limit, *args, **kwargs):
    c["sieve_entries"] += limit
    c["sieve_limits"].add(limit)


def _on_count_kfree(c, limit, k, *args, **kwargs):
    if limit > 0 and k >= 2:
        r = iroot(limit, k)
        c["sieve_entries"] += r
        c["sieve_limits"].add(r)


def _on_factorize(c, n, *args, **kwargs):
    c["factorize_max_digits"] = max(c["factorize_max_digits"], len(str(abs(n))))


def _on_cubic_param(c, a, *args, **kwargs):
    c["cubic_inputs"].add(str(Fraction(a)))


def _on_count_representatives(c, spec, bound, *args, **kwargs):
    x = Fraction(bound)
    if x > 0:
        c["dmax_max"] = max(c["dmax_max"], floor_rational_root(x, 12))


def _on_brute_census(c, spec, bound, *args, **kwargs):
    if Fraction(bound) > 0:
        b = box(spec, bound)
        c["census_points"] += (2 * b.x_bound + 1) * (2 * b.y_bound + 1)


HOOKS = {
    "exactarith.moebius_sieve": _on_moebius_sieve,
    "exactarith.count_kfree": _on_count_kfree,
    "exactarith.factorize": _on_factorize,
    "cuspidal.cubic_param": _on_cubic_param,
    "families.count_representatives": _on_count_representatives,
    "oracle.brute_census": _on_brute_census,
}


class Tracer:
    """In-memory spans and per-name totals for one process."""

    def __init__(self, span_cap: int = 100_000):
        self.active = False
        self.op = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counters = _new_counters()
        self.spans: list[tuple] = []  # (id, parent, op, name id, start, end)
        self.span_cap = span_cap
        self.span_total = 0
        self.root_seconds = 0.0  # time covered by spans without a parent
        self._next_id = 1
        self._stack: list[list] = []  # [span id, seconds covered by child spans]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame, name_id, stat, start, end) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        dur = end - start
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - frame[1]
        if parent is not None:
            parent[1] += dur
        else:
            self.root_seconds += dur
        self.span_total += 1
        if len(self.spans) < self.span_cap:
            self.spans.append(
                (frame[0], parent[0] if parent else 0, self.op, name_id, start, end)
            )

    @contextmanager
    def span(self, name: str):
        """A span opened by the caller, such as the root of one operation."""
        name_id = self._name_id(name)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, name_id, stat, start, time.perf_counter())

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        hook = HOOKS.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._open()
            start = perf()
            try:
                if hook is not None:
                    hook(self.counters, *args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                self._close(frame, name_id, stat, start, perf())

        return traced

    def install(self) -> None:
        """Wrap the public functions of every nhc module, everywhere they
        are bound."""
        wrapped: dict = {}
        modules = [importlib.import_module(f"nhc.{m}") for m in MODULES] + [nhc]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("nhc."):
                    continue
                if obj not in wrapped:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrapped[obj] = self._wrap(name, obj)
                setattr(mod, attr, wrapped[obj])

    def dump(self, path: str) -> None:
        """Write spans, totals and counters as one JSON document."""
        c = dict(self.counters)
        c["sieve_limits"] = sorted(c["sieve_limits"])
        c["cubic_inputs"] = sorted(c["cubic_inputs"])
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "span_columns": ["id", "parent", "op", "name", "start", "end"],
                    "spans": self.spans,
                    "span_total": self.span_total,
                    "root_seconds": self.root_seconds,
                    "stats": self.stats,
                    "counters": c,
                },
                fh,
            )

    def merge(self, doc: dict) -> None:
        """Fold a child process's dump in, hanging its root spans under the
        innermost open span (both processes read the same monotonic
        clock)."""
        frame = self._stack[-1]
        frame[1] += doc["root_seconds"]
        parent = frame[0]
        offset = self._next_id
        for sid, par, _op, name_id, start, end in doc["spans"]:
            if len(self.spans) < self.span_cap:
                self.spans.append(
                    (
                        sid + offset,
                        par + offset if par else parent,
                        self.op,
                        self._name_id(doc["names"][name_id]),
                        start,
                        end,
                    )
                )
            self._next_id = max(self._next_id, sid + offset + 1)
        self.span_total += doc["span_total"]
        for name, (calls, total, self_s) in doc["stats"].items():
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += self_s
        c, other = self.counters, doc["counters"]
        c["sieve_entries"] += other["sieve_entries"]
        c["census_points"] += other["census_points"]
        c["sieve_limits"].update(other["sieve_limits"])
        c["cubic_inputs"].update(other["cubic_inputs"])
        c["factorize_max_digits"] = max(c["factorize_max_digits"], other["factorize_max_digits"])
        c["dmax_max"] = max(c["dmax_max"], other["dmax_max"])

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics that spans and counters give."""

        def stat(name):
            return self.stats.get(name, [0, 0.0, 0.0])

        c = self.counters
        m: dict[str, float] = {}
        for name in CALL_SELF:
            calls, _total, self_s = stat(name)
            m[f"{name}.calls"] = calls
            m[f"{name}.self_s"] = self_s
        m["exactarith.sieve_entries"] = c["sieve_entries"]
        m["exactarith.sieve_limits_distinct"] = len(c["sieve_limits"])
        m["exactarith.factorize.max_digits"] = c["factorize_max_digits"]
        m["cuspidal.cubic_param.distinct_inputs"] = len(c["cubic_inputs"])
        m["families.count_representatives.dmax_max"] = c["dmax_max"]
        m["asymptotics.main_term.calls"] = sum(stat(n)[0] for n in MAIN_TERMS)
        m["asymptotics.main_term.self_s"] = sum(stat(n)[2] for n in MAIN_TERMS)
        m["asymptotics.tables.self_s"] = sum(stat(n)[2] for n in TABLES)
        calls, total, _self = stat("oracle.brute_census")
        m["oracle.brute_census.calls"] = calls
        m["oracle.brute_census.s"] = total
        m["oracle.brute_census.points"] = c["census_points"]
        return m

    def heaviest(self, count: int = 6) -> list[tuple[str, float]]:
        """Names with the most self time.  An operation root's self time is
        what no package span covers: for a subprocess operation, process
        start and imports."""
        ranked = sorted(((n, s[2]) for n, s in self.stats.items()), key=lambda item: -item[1])
        return ranked[:count]
