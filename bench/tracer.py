"""Per-layer tracing of ``hypspeeds`` from outside the package.

``Tracer.install`` wraps every public function that a ``hypspeeds`` module
defines and patches the wrapper into every ``hypspeeds`` module that holds
the function (``from .semigroup import speeds`` in ``harmonic`` is patched
too).  Each call becomes a span attributed to the defining module
(``semigroup.speeds``); the span's self time is its duration minus the time
of the spans it encloses.  Spans are folded into per-function totals and
per-(caller, callee) call counts as they close, because a traced round makes
millions of calls: the totals, not the individual spans, are kept in memory
and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from time import perf_counter

import numpy as np

#: Functions whose individual call durations are kept for percentiles.
KEEP_DURATIONS = ("semigroup.speeds", "semigroup.generalized_speed")
#: Functions whose samples are random walks.
WALK_FUNCTIONS = ("harmonic.mc_first_hit", "harmonic.semidisk_bisection_check")


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple, int] = {}  # (caller or None, callee) -> calls
        self.durations: dict[str, list] = {name: [] for name in KEEP_DURATIONS}
        self.counters = {"walks": 0, "walk_steps": 0, "tail_vertices": 0}
        self._stack: list[list] = []  # open spans: [name, time of closed children]
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import hypspeeds.cli  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "hypspeeds" or n.startswith("hypspeeds.")]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    name = mod.__name__.split(".", 1)[1] + "." + attr
                    wrappers[obj] = self._wrap(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        edges = self.edges
        stack = self._stack
        durations = self.durations.get(name)
        signature = inspect.signature(fn)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                totals[0] += 1
                totals[1] += dt
                totals[2] += dt - frame[1]
                key = (parent, name)
                edges[key] = edges.get(key, 0) + 1
                if durations is not None:
                    durations.append(dt)
            if name in WALK_FUNCTIONS:
                counters["walks"] += int(signature.bind(*args, **kwargs).arguments["n"])
            elif name == "seeding.sample_uniforms" and parent in WALK_FUNCTIONS:
                counters["walk_steps"] += int(np.size(signature.bind(*args, **kwargs).arguments["sample_indices"]))
            elif name == "harmonic.discretize_orbit_tail":
                counters["tail_vertices"] += len(result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data copy of everything recorded, for JSON and merging."""
        return {
            "totals": {k: list(v) for k, v in self.totals.items() if v[0]},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items(), key=lambda e: (str(e[0][0]), e[0][1]))],
            "durations": {k: list(v) for k, v in self.durations.items()},
            "counters": dict(self.counters),
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum several snapshots (for example one per CLI process)."""
    out = {"totals": {}, "edges": {}, "durations": {k: [] for k in KEEP_DURATIONS}, "counters": {}}
    for snap in snapshots:
        for name, (calls, total, self_s) in snap["totals"].items():
            acc = out["totals"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for parent, child, n in snap["edges"]:
            out["edges"][(parent, child)] = out["edges"].get((parent, child), 0) + n
        for name, durs in snap["durations"].items():
            out["durations"].setdefault(name, []).extend(durs)
        for name, n in snap["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + n
    out["edges"] = [[p, c, n] for (p, c), n in out["edges"].items()]
    return out


def _percentile_us(values: list, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e6
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(snap: dict, rounds: int) -> dict:
    """The per-layer metrics named in BENCHMARK.json, per round of the workload.

    Calls and counts are exact per round; times are the traced phase's totals
    divided by its rounds.  A function the workload never calls reads 0.
    """
    totals = snap["totals"]

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0] / rounds

    def total_s(name):
        return totals.get(name, [0, 0.0, 0.0])[1] / rounds

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2] / rounds

    def per_parent(child, parent):
        return sum(n for p, c, n in snap["edges"] if p == parent and c == child) / rounds

    counters = {k: v / rounds for k, v in snap["counters"].items()}
    projections = calls("hyperbolic.project_to_geodesic")
    walk_time = sum(total_s(name) for name in WALK_FUNCTIONS)
    walks, steps = counters.get("walks", 0.0), counters.get("walk_steps", 0.0)
    m = {
        "conformal.map_inverse.calls": calls("conformal.map_inverse"),
        "conformal.map_inverse.self_s": self_s("conformal.map_inverse"),
        "conformal.map_forward.calls": calls("conformal.map_forward"),
        "conformal.axis_distance.calls": calls("conformal.axis_distance"),
        "domains.dist_to_boundary.calls": calls("domains.dist_to_boundary"),
        "hyperbolic.project_to_geodesic.calls": projections,
        "hyperbolic.project_to_geodesic.self_s": self_s("hyperbolic.project_to_geodesic"),
        "hyperbolic.disk_distance.calls": calls("hyperbolic.disk_distance"),
        "hyperbolic.disk_distance.self_s": self_s("hyperbolic.disk_distance"),
        "hyperbolic.disk_distance.per_projection": (
            per_parent("hyperbolic.disk_distance", "hyperbolic.project_to_geodesic") / projections if projections else 0.0
        ),
        "hyperbolic.region_distance.calls": calls("hyperbolic.region_distance"),
        "harmonic.mc_first_hit.self_s": self_s("harmonic.mc_first_hit"),
        "harmonic.semidisk_bisection_check.self_s": self_s("harmonic.semidisk_bisection_check"),
        "harmonic.discretize_orbit_tail.self_s": self_s("harmonic.discretize_orbit_tail"),
        "harmonic.discretize_orbit_tail.vertices": counters.get("tail_vertices", 0.0),
        "harmonic.walks": walks,
        "harmonic.walk_steps": steps,
        "harmonic.steps_per_walk": steps / walks if walks else 0.0,
        "harmonic.walk_steps_per_s": steps / walk_time if walk_time else 0.0,
        "harmonic.theorem4_scan.self_s": self_s("harmonic.theorem4_scan"),
        "seeding.sample_uniforms.calls": calls("seeding.sample_uniforms"),
        "seeding.sample_uniforms.self_s": self_s("seeding.sample_uniforms"),
        "quasihyperbolic.theorem3_table.self_s": self_s("quasihyperbolic.theorem3_table"),
    }
    for name in KEEP_DURATIONS:
        durs = snap["durations"].get(name, [])
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.p50_us"] = _percentile_us(durs, 50)
        m[f"{name}.p99_us"] = _percentile_us(durs, 99)
    return m


def write_trace(path, snap: dict, metrics: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"metrics": metrics, "totals": snap["totals"], "edges": snap["edges"], "counters": snap["counters"]}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
