"""Per-layer attribution of a traced pass.

Each ``kkgeom`` module is one layer.  The stdlib profiler (cProfile) runs
around each CLI call from the benchmark's own code; nothing in the program
is instrumented.  A layer's self time is the profiler's self time of every
function defined in that module.  Expressions compiled from scenario
strings (code named ``<lambda>`` in ``<string>``) belong to ``exprlang``,
which compiles them.  ``builtins`` is the time of C functions when called
from a layer.  Counts are calls of the functions named in ``counted``.
"""

from __future__ import annotations

import cProfile
import os
import time
import types
from collections import Counter, defaultdict

LAYERS = ("calculus", "nlconnection", "metric", "dconnection", "curvature",
          "exprlang", "lift", "scenario", "report", "algebroid", "sampling",
          "suites", "cli", "builtins")


def _codes(func, names) -> set:
    """The code objects called ``names`` in ``func``, including the closures
    it defines."""
    found, stack = set(), [func.__code__]
    while stack:
        code = stack.pop()
        if code.co_name in names:
            found.add(code)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


def counted(kk) -> dict:
    """Count name -> code objects, resolved in the imported package ``kk``."""
    lift = kk.lift
    return {
        "jet_allocs": _codes(kk.calculus.Jet.__init__, {"__init__"}),
        "derivative_passes": _codes(kk.nlconnection.adapted_derivatives,
                                    {"adapted_derivatives"}),
        "coeff_evals": _codes(kk.metric.metric_dconnection,
                              {"hh_at", "hv_at", "vh_at", "vv_at"}),
        "oracle_builds": (
            _codes(kk.dconnection.cov_deriv_along, {"cov_deriv_along"})
            | _codes(kk.dconnection.bracket_d_vectors, {"bracket_d_vectors"})),
        "component_evals": (
            _codes(kk.curvature.torsion_components_at,
                   {"torsion_components_at"})
            | _codes(kk.curvature.curvature_components_at,
                     {"curvature_components_at"})),
        "rhs_evals": (_codes(lift.integrate_parallel_lift, {"f"})
                      | _codes(lift.integrate_horizontal_parallel, {"f"})
                      | _codes(lift.integrate_vertical_parallel, {"f"})),
        "loads": _codes(kk.scenario.load_scenario, {"load_scenario"}),
    }


class LayerProfile:
    """Accumulates self time per layer and call counts over profiled calls."""

    def __init__(self, kk):
        self.pkg_dir = os.path.dirname(os.path.abspath(kk.__file__))
        self.targets = counted(kk)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.rhs_cum_s = 0.0
        self.wall_s = 0.0

    def layer(self, code) -> str | None:
        if code.co_filename == "<string>" and code.co_name == "<lambda>":
            return "exprlang"
        if os.path.dirname(code.co_filename) == self.pkg_dir:
            return os.path.basename(code.co_filename)[:-3]
        return None

    def run(self, fn):
        """Call ``fn()`` under a fresh profiler; returns its result and the
        counts of this call alone."""
        prof = cProfile.Profile()
        t0 = time.perf_counter()
        prof.enable()
        try:
            result = fn()
        finally:
            prof.disable()
            self.wall_s += time.perf_counter() - t0
        counts = Counter()
        # Raw entries, one per code object: pstats would merge the many
        # compiled expressions, which share one (file, line, name) label.
        for entry in prof.getstats():
            code = entry.code
            layer = None if isinstance(code, str) else self.layer(code)
            if layer is None:
                continue
            self.self_s[layer] += entry.inlinetime
            self.self_s["builtins"] += sum(
                sub.inlinetime for sub in entry.calls or ()
                if isinstance(sub.code, str))
            if layer == "exprlang" and code.co_filename == "<string>":
                counts["field_evals"] += entry.callcount
            for name, codes in self.targets.items():
                if code in codes:
                    counts[name] += entry.callcount
                    if name == "rhs_evals":
                        self.rhs_cum_s += entry.totaltime
        self.counts.update(counts)
        return result, counts
