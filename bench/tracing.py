"""Span tracing of the urnwalk layers, applied from outside the package.

A :class:`Tracer` replaces the public functions of each urnwalk module with
wrappers that record one span per call: name, start, end, parent span and
the op it belongs to.  Nothing under ``src/`` changes; the wrappers are
installed for a traced round and the original functions are put back
afterwards, so untraced rounds run the unmodified program.  Spans stay in
memory and are written out once, when the run ends.

Per-layer metrics are derived from the spans: ``busy_s`` is the time inside
a function, ``self_s`` is ``busy_s`` minus the time covered by its traced
children, and counters (system sizes, solver paths, Monte Carlo steps) are
read off each call's arguments and result at the same boundary.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "checks", "oracle", "linsolve", "exact", "occupancy", "model", "simulate")

# Leaf helpers called once per state or per term inside the layers' loops
# (millions of calls in `verify`).  Wrapping them would make the tracing
# cost, not the program, dominate the traced round.
UNTRACED = frozenset(
    {
        "model.check_configuration",
        "model.all_in_urn",
        "model.parse_configuration",
        "model.format_configuration",
        "model.index_of",
        "model.config_at",
        "model.hamming_distance",
        "model.neighbors",
        "model.transition_probability",
        "model.lump_class_of",
        "exact.binomial",
        "simulate.step",
    }
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict = dataclasses.field(default_factory=dict)
    error: str | None = None


def _solve_exact_counts(args, kwargs, result, linsolve) -> dict:
    rows = args[0] if args else kwargs["rows"]
    size = len(rows)
    counts = {"unknowns": size}
    if size <= linsolve.DENSE_FRACTION_LIMIT:
        counts["dense_calls"] = 1
    elif max(v.denominator for v in result) > max(linsolve.SNAP_DENOMINATOR_BOUNDS):
        # no snap bound can produce this denominator: the modular path ran
        counts["beyond_snap_calls"] = 1
    return counts


def _solve_float_counts(args, kwargs, result, linsolve) -> dict:
    rows = args[0] if args else kwargs["rows"]
    return {"nnz": sum(len(row) for row in rows)}


def _absorbing_counts(args, kwargs, result, oracle) -> dict:
    params = args[0] if args else kwargs["params"]
    return {"states": params.state_count}


def _check_counts(args, kwargs, result, checks) -> dict:
    return {"cells": result.cells}


def _simulate_counts(args, kwargs, result, simulate) -> dict:
    plan = args[0] if args else kwargs["plan"]
    completed = result.replications_completed
    # the estimate's mean is an exact integer total divided by `completed`
    steps = round(result.mean * completed) + result.truncated_count * plan.step_cap
    return {
        "replications": plan.replications,
        "completed": completed,
        "truncated": result.truncated_count,
        "steps": steps,
    }


# The check functions `checks.run_verification` calls, in its order.
CHECK_FUNCTIONS = (
    "checks.formula_route_agreement",
    "checks.increment_recursion_agreement",
    "checks.distance_formula_collapse",
    "checks.sum_identity",
    "checks.termwise_difference_witness",
    "checks.occupancy_route_agreement",
    "checks.occupancy_aggregation",
    "checks.lumping_exactness",
    "checks.oracle_transfer_agreement",
    "checks.oracle_distance_agreement",
    "checks.first_visit_triple_agreement",
    "checks.fiber_checks",
)

COUNTERS = {
    "linsolve.solve_exact": _solve_exact_counts,
    "linsolve.solve_float": _solve_float_counts,
    "oracle.build_absorbing_system": _absorbing_counts,
    "simulate.run": _simulate_counts,
    **{name: _check_counts for name in CHECK_FUNCTIONS},
}


def public_functions(package) -> dict[str, tuple[object, object]]:
    """``layer.name -> (module, function)`` for every traced function."""
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name not in UNTRACED:
                out[name] = (module, value)
    return out


class Tracer:
    """Records spans for calls into the urnwalk layers while installed."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None
        functions = public_functions(package)
        self.functions = tuple(functions)
        self._wrappers = {
            id(fn): self._wrap(name, module, fn) for name, (module, fn) in functions.items()
        }

    def _wrap(self, name: str, module, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result, module)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced function wherever the package binds it."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None
            and (key == self.package.__name__ or key.startswith(self.package.__name__ + "."))
        ]
        patched = []
        try:
            for m in modules:
                for attr, value in list(vars(m).items()):
                    wrapper = self._wrappers.get(id(value))
                    if wrapper is not None:
                        setattr(m, attr, wrapper)
                        patched.append((m, attr, value))
            yield self
        finally:
            for m, attr, value in patched:
                setattr(m, attr, value)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps({"id": i, **dataclasses.asdict(span)}) + "\n")


def span_totals(spans: list[Span]) -> tuple[dict, dict, dict]:
    """Busy time, self time and summed counters per function name.

    Each span adds 1 to its function's ``calls`` counter.
    """
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    for i, s in enumerate(spans):
        duration = s.end - s.start
        busy[s.name] += duration
        self_time[s.name] += duration - child_time[i]
        counts[s.name]["calls"] += 1
        for key, value in s.counts.items():
            counts[s.name][key] += value
    return busy, self_time, counts


def layer_metrics(spans: list[Span], rounds: int, functions) -> dict[str, float]:
    """Per-layer metrics, averaged per round.

    For every traced function ``f`` of layer ``l``: ``f.busy_s``, ``f.self_s``
    and ``f.calls`` (0 for a function never called), ``f.<counter>`` for each
    counter its calls recorded, and ``l.<counter>`` summed over the layer.
    Plus ``simulate.completed_ratio``: completed over attempted replications.
    """
    busy, self_time, counts = span_totals(spans)
    per = 1.0 / max(rounds, 1)
    out: dict[str, float] = defaultdict(float)
    for name in functions:
        out[f"{name}.busy_s"] = busy.get(name, 0.0) * per
        out[f"{name}.self_s"] = self_time.get(name, 0.0) * per
        out[f"{name}.calls"] = 0.0
    for name, counters in counts.items():
        layer = name.split(".", 1)[0]
        for key, value in counters.items():
            out[f"{name}.{key}"] = value * per
            if key != "calls":
                out[f"{layer}.{key}"] += value * per
    attempted = counts.get("simulate.run", {}).get("replications", 0)
    completed = counts.get("simulate.run", {}).get("completed", 0)
    out["simulate.completed_ratio"] = completed / attempted if attempted else 0.0
    return dict(out)
