"""Spans around the package's public functions, and the per-layer metrics.

The wrappers replace each public function under every name the package
looks it up by: its own module's attribute (which also serves calls made as a
module global from inside that module), each module that imported it by name
(``evaluate_shifted`` in ``solver`` and ``harness``, ``parse_real`` in
``harness``), and the ``harness.RUNNERS`` table.  ``harness._map_cells`` is
wrapped as well so that each pool cell gets a span whose parent is the pool
call, whichever thread runs it.

A span records name, start, end, parent span, thread and the CLI call it
belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import math
import statistics
import threading
from collections import Counter, defaultdict
from functools import lru_cache
from time import perf_counter
from typing import NamedTuple

LAYERS = ("harness", "weyl_sums", "solver", "forms", "diophantine", "isometries", "fixed")

# Called tens of thousands of times per solve pass and cheaper than a span;
# wrapping them would triple the span count and distort the layers around them.
UNWRAPPED = {"fixed.as_fixed", "forms.standard_form"}


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    call: int


def _steps(scan_c: float, T: int) -> int:
    return int(scan_c * math.sqrt(T))


# Counters taken from a call's bound arguments and result, outside its span.
OBSERVERS = {
    "weyl_sums.count_orbit_hits": lambda a, r: {
        "steps": a["T"], "F": a["alpha"].F, "hits": r if isinstance(r, int) else r[0]},
    "weyl_sums.weyl_sum": lambda a, r: {"terms": a["T"]},
    "weyl_sums.weyl_differencing_bound": lambda a, r: {"terms": a["T"]},
    "weyl_sums.sum_min": lambda a, r: {"terms": a["M"] * a["T"]},
    "solver.find_solutions": lambda a, r: {
        "steps": _steps(a["scan_c"], a["T"]), "solutions": r.count},
    "solver.estimate_critical_exponent": lambda a, r: {
        "mode": a["mode"],
        "steps": sum(_steps(a["scan_c"], int(T)) for T in a["T_grid"]) if a["mode"] == "solver" else 0},
    "solver.count_values_bruteforce": lambda a, r: {"T": a["T"]},
    "diophantine.continued_fraction": lambda a, r: {"quotients": len(r.quotients)},
    "harness.write_csv": lambda a, r: {"rows": len(a["rows"])},
    "harness._map_cells": lambda a, r: {
        "threads": a["threads"] if a["threads"] > 1 and len(a["cells"]) > 1 else 1},
}


class Tracer:
    """Collects spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict] = {}
        self.refusals: Counter = Counter()
        self.call = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._refused: tuple = ()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, name, fn, args, kwargs, observe=None, parent=None):
        """Call fn inside a span; parent=(span id, call id) overrides the thread's stack."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else (0, self.call)
        sid = next(self._ids)  # one C-level call, atomic under the interpreter lock
        stack.append((sid, parent[1]))
        if name == "harness._map_cells":
            args = (args[0], self._cells(args[1], (sid, parent[1])), *args[2:])
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self._refused:
            self.refusals[name.split(".", 1)[0]] += 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent[0], threading.get_ident(), parent[1]))
        if observe is not None:
            self.counts[sid] = observe(args, kwargs, result)
        return result

    def _cells(self, fn, parent):
        def cell(c):
            return self.run("harness.cell", fn, (c,), {}, parent=parent)
        return cell

    def wrap(self, fn, name):
        observer = OBSERVERS.get(name)
        observe = None
        if observer is not None:
            sig = inspect.signature(fn)

            def observe(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return observer(bound.arguments, result)

        def wrapper(*args, **kwargs):
            return self.run(name, fn, args, kwargs, observe)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> list:
        """Wrap the package's public functions; returns what restore() needs."""
        from qdensity.errors import PrecisionExhausted, ValidationError

        self._refused = (PrecisionExhausted, ValidationError)
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        home = {mod.__name__: layer for layer, mod in modules.items()}
        wrappers: dict = {}
        undo = []
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value) or value.__module__ not in home:
                    continue
                if attr.startswith("_") and (mod.__name__, attr) != ("qdensity.harness", "_map_cells"):
                    continue
                name = f"{home[value.__module__]}.{value.__name__}"
                if name in UNWRAPPED:
                    continue
                if value not in wrappers:
                    wrappers[value] = self.wrap(value, name)
                undo.append((vars(mod), attr, value))
                setattr(mod, attr, wrappers[value])
        runners = modules["harness"].RUNNERS
        for key, value in list(runners.items()):
            undo.append((runners, key, value))
            runners[key] = wrappers[value]
        return undo


def restore(undo: list) -> None:
    for namespace, key, value in reversed(undo):
        namespace[key] = value


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, children) -> float:
    """Duration minus the part of the span's interval its children cover."""
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return (span.end - span.start) - union_length((lo, hi) for lo, hi in clipped if hi > lo)


@lru_cache(maxsize=None)
def ball_counts(T: int) -> tuple[int, int]:
    """(lattice points in the ball |v| <= T, (v1, v2) pairs in the disc)."""
    points = slices = 0
    for v1 in range(-T, T + 1):
        room1 = T * T - v1 * v1
        for v2 in range(-math.isqrt(room1), math.isqrt(room1) + 1):
            slices += 1
            points += 2 * math.isqrt(room1 - v2 * v2) + 1
    return points, slices


# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    "weyl_sums.count_orbit_hits_s": "s",
    "weyl_sums.orbit_steps": "count",
    "weyl_sums.orbit_step_ns.F256": "ns",
    "weyl_sums.orbit_step_ns.F512": "ns",
    "weyl_sums.hit_ratio": "ratio",
    "weyl_sums.weyl_sum_s": "s",
    "weyl_sums.weyl_terms": "count",
    "weyl_sums.weyl_term_ns": "ns",
    "weyl_sums.bound_s": "s",
    "weyl_sums.sum_min_terms": "count",
    "weyl_sums.sum_min_term_ns": "ns",
    "solver.find_solutions_s": "s",
    "solver.solve_steps": "count",
    "solver.solve_step_us": "us",
    "solver.solution_ratio": "ratio",
    "solver.exponent_solver_s": "s",
    "solver.exponent_step_us": "us",
    "solver.oracle_s": "s",
    "solver.oracle_points": "count",
    "solver.oracle_slices": "count",
    "solver.oracle_slice_us": "us",
    "solver.oracle_exact_ratio": "ratio",
    "forms.evaluate_shifted_s": "s",
    "forms.evaluate_shifted_calls": "count",
    "forms.evaluate_shifted_s.scan": "s",
    "forms.evaluate_shifted_calls.scan": "count",
    "forms.evaluate_shifted_s.reverify": "s",
    "forms.evaluate_shifted_calls.reverify": "count",
    "forms.evaluate_shifted_s.oracle": "s",
    "forms.evaluate_shifted_calls.oracle": "count",
    "diophantine.direction_scan_s": "s",
    "diophantine.directions_tried": "count",
    "diophantine.estimate_kappa_s": "s",
    "diophantine.cf_calls": "count",
    "diophantine.cf_calls_per_expansion": "ratio",
    "diophantine.cf_quotients": "count",
    "diophantine.cf_quotient_us": "us",
    "diophantine.dirichlet_s": "s",
    "isometries.apply_s": "s",
    "isometries.apply_calls": "count",
    "fixed.parse_real_s": "s",
    "harness.main_s": "s",
    "harness.self_s": "s",
    "harness.write_csv_s": "s",
    "harness.csv_rows": "count",
    "harness.pool_busy_ratio": "ratio",
    **{f"{layer}.refusals": "count" for layer in LAYERS},
    "trace.spans": "count",
    "trace.dominant_share": "ratio",
}

# unit probes, timed through the public API outside any CLI call
PROBE_UNITS = {
    **{f"fixed.{op}_ns.F{F}": "ns"
       for op in ("mul", "add", "mul_int", "certainly_le", "round_nearest") for F in (256, 512)},
    "diophantine.cf_probe_quotient_us": "us",
}

RUN_UNITS = {"trace.overhead_ratio": "ratio"}

PER_LAYER_UNITS = {**LAYER_UNITS, **PROBE_UNITS, **RUN_UNITS}

_EVAL_CALLERS = {
    "solver.find_solutions": "scan",
    "solver.estimate_critical_exponent": "scan",
    "harness.run_solve": "reverify",
    "solver.count_values_bruteforce": "oracle",
}


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def pass_metrics(tracer: Tracer, dominant: tuple[str, ...]) -> dict[str, float]:
    """LAYER_UNITS metrics of one traced pass."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    names = {}
    for s in tracer.spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)
        names[s.sid] = s.name
    # a call that raised has no counters; its time still counts
    def obs(s) -> dict:
        return tracer.counts.get(s.sid, {})

    def total(name, keep=lambda s: True):
        return sum(s.end - s.start for s in by_name[name] if keep(s))

    def summed(name, key, keep=lambda s: True):
        return sum(obs(s).get(key, 0) for s in by_name[name] if keep(s))

    m: dict[str, float] = {}
    orbit = "weyl_sums.count_orbit_hits"
    steps = summed(orbit, "steps")
    m["weyl_sums.count_orbit_hits_s"] = total(orbit)
    m["weyl_sums.orbit_steps"] = steps
    for F in (256, 512):
        at_F = lambda s, F=F: obs(s).get("F") == F  # noqa: E731
        m[f"weyl_sums.orbit_step_ns.F{F}"] = _per(total(orbit, at_F), summed(orbit, "steps", at_F), 1e9)
    m["weyl_sums.hit_ratio"] = _per(summed(orbit, "hits"), steps)

    terms = summed("weyl_sums.weyl_sum", "terms")
    m["weyl_sums.weyl_sum_s"] = total("weyl_sums.weyl_sum")
    m["weyl_sums.weyl_terms"] = terms
    m["weyl_sums.weyl_term_ns"] = _per(m["weyl_sums.weyl_sum_s"], terms, 1e9)
    kernels = ("weyl_sums.weyl_differencing_bound", "weyl_sums.sum_min")
    kernel_s = sum(total(k) for k in kernels)
    sum_min_terms = sum(summed(k, "terms") for k in kernels)
    m["weyl_sums.bound_s"] = kernel_s + total("weyl_sums.sum_min_explicit_bound")
    m["weyl_sums.sum_min_terms"] = sum_min_terms
    m["weyl_sums.sum_min_term_ns"] = _per(kernel_s, sum_min_terms, 1e9)

    fs = "solver.find_solutions"
    solve_steps = summed(fs, "steps")
    m["solver.find_solutions_s"] = total(fs)
    m["solver.solve_steps"] = solve_steps
    m["solver.solve_step_us"] = _per(total(fs), solve_steps, 1e6)
    m["solver.solution_ratio"] = _per(summed(fs, "solutions"), solve_steps)
    ex = "solver.estimate_critical_exponent"
    solver_mode = lambda s: obs(s).get("mode") == "solver"  # noqa: E731
    m["solver.exponent_solver_s"] = total(ex, solver_mode)
    m["solver.exponent_step_us"] = _per(total(ex, solver_mode), summed(ex, "steps"), 1e6)
    oracle = "solver.count_values_bruteforce"
    points = slices = 0
    for s in by_name[oracle]:
        p, q = ball_counts(obs(s).get("T", 0))
        points += p
        slices += q
    m["solver.oracle_s"] = total(oracle)
    m["solver.oracle_points"] = points
    m["solver.oracle_slices"] = slices
    m["solver.oracle_slice_us"] = _per(total(oracle), slices, 1e6)

    ev = by_name["forms.evaluate_shifted"]
    m["forms.evaluate_shifted_s"] = sum(s.end - s.start for s in ev)
    m["forms.evaluate_shifted_calls"] = len(ev)
    for caller in ("scan", "reverify", "oracle"):
        mine = [s for s in ev if _EVAL_CALLERS.get(names.get(s.parent)) == caller]
        m[f"forms.evaluate_shifted_s.{caller}"] = sum(s.end - s.start for s in mine)
        m[f"forms.evaluate_shifted_calls.{caller}"] = len(mine)
    m["solver.oracle_exact_ratio"] = _per(m["forms.evaluate_shifted_calls.oracle"], points)

    cf = "diophantine.continued_fraction"
    expansions = sum(len(by_name[f"diophantine.{n}"])
                     for n in ("estimate_kappa", "convergents_up_to", "dirichlet_approx"))
    quotients = summed(cf, "quotients")
    m["diophantine.direction_scan_s"] = total("diophantine.diophantine_direction")
    m["diophantine.directions_tried"] = sum(
        names.get(s.parent) == "diophantine.diophantine_direction"
        for s in by_name["diophantine.estimate_kappa"])
    m["diophantine.estimate_kappa_s"] = total("diophantine.estimate_kappa")
    m["diophantine.cf_calls"] = len(by_name[cf])
    m["diophantine.cf_calls_per_expansion"] = _per(len(by_name[cf]), expansions)
    m["diophantine.cf_quotients"] = quotients
    m["diophantine.cf_quotient_us"] = _per(total(cf), quotients, 1e6)
    m["diophantine.dirichlet_s"] = total("diophantine.dirichlet_approx")

    m["isometries.apply_s"] = total("isometries.apply")
    m["isometries.apply_calls"] = len(by_name["isometries.apply"])
    m["fixed.parse_real_s"] = total("fixed.parse_real")

    mains = by_name["harness.main"]
    main_s = sum(s.end - s.start for s in mains)
    m["harness.main_s"] = main_s
    m["harness.self_s"] = sum(self_time(s, children[s.sid]) for s in mains)
    m["harness.write_csv_s"] = total("harness.write_csv")
    m["harness.csv_rows"] = summed("harness.write_csv", "rows")
    pools = by_name["harness._map_cells"]
    capacity = sum(obs(s).get("threads", 1) * (s.end - s.start) for s in pools)
    busy = sum(c.end - c.start for s in pools for c in children[s.sid])
    m["harness.pool_busy_ratio"] = _per(busy, capacity)
    for layer in LAYERS:
        m[f"{layer}.refusals"] = tracer.refusals[layer]
    m["trace.spans"] = len(tracer.spans)
    covered = union_length((s.start, s.end) for n in dominant for s in by_name[n])
    m["trace.dominant_share"] = _per(covered, main_s)
    return m


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
