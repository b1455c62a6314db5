"""Span and count wrappers around the public functions of fcstates.

``Tracer.install`` replaces every public function of every fcstates module
with a wrapper that records a span (name, start, end, parent span, op id)
while an op is active.  The same function object is usually also bound in
the modules that import it (``classify.eig``, ``modular.eig``, the package
namespace, ...); every such binding is patched, and ``restore`` puts every
original object back.  Nothing is installed unless a traced run asks for
it, so untraced runs execute the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass

MODULES = ("numerics", "popescu", "cpmap", "classify", "chain", "dilation", "modular", "cli")


def _numerics_orthonormal_columns(args, kwargs, result):
    given = args[0].shape[1] if args else kwargs["a"].shape[1]
    return {"cols_given": given, "cols_kept": result.shape[1], "max_cols": given}


def _numerics_kernel(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return {"elements": a.size}


def _numerics_eig(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return {"max_dim": a.shape[0]}


def _dilation_build(args, kwargs, result):
    return {"max_dim": result.dim}


#: Counters read from the arguments and result of a call, by span name.
#: Keys starting with ``max_`` keep the maximum, the others the sum.
COUNTERS = {
    "numerics.orthonormal_columns": _numerics_orthonormal_columns,
    "numerics.kernel": _numerics_kernel,
    "numerics.eig": _numerics_eig,
    "dilation.build": _dilation_build,
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0


class Tracer:
    """In-memory span recorder with install/restore of the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None, self.op, 0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                acc = self.counters.setdefault(name, {})
                for key, value in counter(args, kwargs, result).items():
                    if key.startswith("max_"):
                        acc[key] = max(acc.get(key, 0), value)
                    else:
                        acc[key] = acc.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every module and patch every binding."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        mods = [importlib.import_module("fcstates")]
        mods += [importlib.import_module(f"fcstates.{m}") for m in MODULES]
        wrapped: dict[int, object] = {}
        for short, mod in zip(MODULES, mods[1:]):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(mod, attr, wrapped[id(obj)])
        # the validating constructor is a classmethod, bound on the class
        popescu = mods[1 + MODULES.index("popescu")]
        original = vars(popescu.PopescuSystem)["from_operators"]
        self._patch(
            popescu.PopescuSystem,
            "from_operators",
            classmethod(self._wrap("popescu.from_operators", original.__func__)),
        )

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put back every attribute that ``install`` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def write(self, path) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                       "start": s.start - t0, "end": s.end - t0}
                fh.write(json.dumps(rec) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total_s (outermost spans only) and self_s.

        A span's self time is its duration minus the time covered by its
        direct children; children of one span never overlap, since every
        call is synchronous.  Module-level entries (key ``<module>``) sum
        the self time of all spans of that module.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            dur = s.end - s.start
            own = dur - child_time[s.id]
            fn = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            fn["calls"] += 1
            fn["self_s"] += own
            if not self._has_ancestor_named(s):
                fn["total_s"] += dur
            mod = out.setdefault(s.name.split(".")[0], {"self_s": 0.0})
            mod["self_s"] += own
        for name, acc in self.counters.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}).update(acc)
        return out

    def _has_ancestor_named(self, span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == span.name:
                return True
            parent = self.spans[parent].parent
        return False


# ----------------------------------------------------------------------
# the per-layer metrics reported by a traced run
# ----------------------------------------------------------------------

def _expand(*groups: tuple[str, tuple[str, ...]]) -> tuple[str, ...]:
    return tuple(f"{prefix}.{stat}" for prefix, stats in groups for stat in stats)


PER_LAYER = _expand(
    ("cpmap.generated_algebra", ("calls", "total_s", "self_s")),
    ("numerics.orthonormal_columns", ("calls", "self_s", "max_cols", "kept_frac")),
    ("cpmap.sigma_matrix", ("calls_per_op",)),
    ("cpmap.predual_matrix", ("calls_per_op",)),
    ("cpmap.fixed_points", ("calls", "total_s")),
    ("numerics.kernel", ("calls", "self_s", "elements")),
    ("cpmap.mixed_fixed_points", ("total_s",)),
    ("numerics.eig", ("calls", "self_s", "max_dim")),
    ("cpmap.peripheral_spectrum", ("calls", "total_s")),
    ("cpmap.invariant_state", ("calls", "total_s")),
    ("popescu.compress", ("calls", "total_s")),
    ("cpmap.gauge_group_order", ("total_s",)),
    ("cpmap.commutant", ("total_s",)),
    ("classify.classify_od", ("total_s",)),
    ("classify.classify_chain", ("total_s",)),
    ("classify", ("self_s",)),
    ("dilation.build", ("total_s", "self_s", "max_dim")),
    ("dilation.cuntz_residuals", ("total_s",)),
    ("dilation.moments", ("total_s",)),
    ("dilation.moment_checks", ("total_s",)),
    ("dilation.dilation_moments", ("total_s",)),
    ("dilation", ("self_s",)),
    ("modular.gns", ("total_s",)),
    ("modular.dual_system", ("total_s",)),
    ("modular.verify_duality", ("total_s",)),
    ("modular.compare_duals", ("total_s",)),
    ("modular", ("self_s",)),
    ("chain.clustering_defect", ("calls", "total_s")),
    ("chain.expectation", ("calls", "total_s")),
    ("chain.e_map", ("calls", "total_s")),
    ("chain", ("self_s",)),
    ("cli.load_system", ("total_s",)),
    ("cli.report_to_json", ("total_s",)),
    ("cli", ("self_s",)),
    ("popescu.from_operators", ("calls",)),
    ("trace", ("overhead_frac",)),
)

UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "max_cols": "count", "max_dim": "count",
         "elements": "count", "kept_frac": "1", "calls_per_op": "1/op", "overhead_frac": "1"}


def layer_metrics(summary: dict, traced_ops: int, overhead_frac: float) -> dict[str, dict]:
    """Every PER_LAYER metric, from a ``Tracer.summary`` over ``traced_ops`` ops."""
    out = {}
    for metric in PER_LAYER:
        fn, stat = metric.rsplit(".", 1)
        acc = summary.get(fn, {})
        if stat == "overhead_frac":
            value = overhead_frac
        elif stat == "kept_frac":
            value = acc["cols_kept"] / acc["cols_given"] if acc.get("cols_given") else 0.0
        elif stat == "calls_per_op":
            value = acc.get("calls", 0) / traced_ops
        else:
            value = acc.get(stat, 0)
        out[metric] = {"value": value, "unit": UNITS[stat]}
    return out
