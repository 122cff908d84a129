"""Per-layer tracing for the triconic benchmark.

The tracer replaces public functions of the package with timing wrappers.
A function imported by name into other modules (``from .conic import
classify``) is replaced in every ``triconic`` module that holds it, so calls
made inside the package are counted as well as calls from the benchmark.

For each span it records the number of calls and the self time: the
wall time of the call minus the time spent in traced calls it made.  It
also counts the evaluations of the circle functionals made inside the
circle-point searches, the curve evaluations made by the zero-set tracer,
and the wall time of each proposition of the verify manifest.

The tracer keeps one call stack and is meant for single-threaded runs.
"""

from __future__ import annotations

import importlib
import sys
import time

SPANS = (
    "kernels.six_point",
    "loci.region_map",
    "loci.sample_locus_x478",
    "loci.sample_locus_ostar",
    "loci.trace_zero_set",
    "loci.find_pstar_candidates",
    "loci.find_phyp_circle_points",
    "triads.build_triad",
    "triads.six_point_conic",
    "conic.fit_conic_5pts",
    "conic.classify",
    "conic.conic_conic_intersections",
    "centers.circumcircle",
    "appendix.eval_terms",
    "verify.replay_witness",
    "scene.scene_for_triad",
    "render.emit_svg",
    "render.emit_ppm",
)

SEARCHES = ("loci.find_pstar_candidates", "loci.find_phyp_circle_points")
FUNCTIONALS = ("loci.pstar_circle_functional", "loci.phyp_circle_functional")


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.prop_s: dict[str, float] = {}
        self.search_evals = 0
        self.search_points = 0
        self.zero_set_evals = 0
        self._in_search = 0
        # Time spent in traced children, one accumulator per open span.
        self._child = []
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        child = self._child
        search = name in SEARCHES
        zero_set = name == "loci.trace_zero_set"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if zero_set:
                args = (self._count_zero_set(args[0]),) + args[1:]
            if search:
                self._in_search += 1
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.calls[name] += 1
                self.self_s[name] += dt - child.pop()
                if child:
                    child[-1] += dt
                if search:
                    self._in_search -= 1
            if search:
                self.search_points += len(out)
            return out

        return wrapper

    def _count_zero_set(self, fn):
        def counted(x, y):
            self.zero_set_evals += 1
            return fn(x, y)

        return counted

    def _functional(self, fn):
        def wrapper(*args):
            if self._in_search:
                self.search_evals += 1
            return fn(*args)

        return wrapper

    def _proposition(self, fn):
        clock = time.perf_counter

        def wrapper(prop_id, *args, **kwargs):
            t0 = clock()
            try:
                return fn(prop_id, *args, **kwargs)
            finally:
                self.prop_s[prop_id] = self.prop_s.get(prop_id, 0.0) + clock() - t0

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace(self, qualname, make):
        module, attr = qualname.rsplit(".", 1)
        orig = getattr(importlib.import_module("triconic." + module), attr)
        wrapped = make(orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "triconic" or name.startswith("triconic.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, orig))

    def __enter__(self):
        for name in SPANS:
            self._replace(name, lambda fn, name=name: self._span(name, fn))
        for name in FUNCTIONALS:
            self._replace(name, self._functional)
        self._replace("verify.run_proposition", self._proposition)
        return self

    def __exit__(self, *exc):
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()
        return False

    # -- results ----------------------------------------------------------

    def metrics(self, prop_ids) -> dict:
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for pid in prop_ids:
            out[f"verify.prop.{pid}.s"] = (self.prop_s.get(pid, 0.0), "s")
        out["loci.circle_functional.evals_per_solve"] = (
            self.search_evals / self.search_points if self.search_points else 0.0,
            "evals/point",
        )
        out["loci.trace_zero_set.fn_evals"] = (self.zero_set_evals, "count")
        return out
