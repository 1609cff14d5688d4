"""Spans around the package's public functions, recorded from outside.

The modules import each other's functions by name (``credal.polytope``
holds its own ``lp_solve``, ``credal.consistency`` its own
``is_rectangular``), so each traced function is wrapped once and every
``credal.*`` module's binding of it is rebound to the wrapper.  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# Traced functions as ``<module>.<function>``; the per-layer metrics
# are named after them.  Comments name the end-to-end metric each layer
# should move, and on which workload.
FUNCTIONS = (
    # analyses_per_s and analysis_p50_ms on structure (tiny LPs),
    # analysis_tail_ms on games (large LPs)
    "linprog.lp_solve",
    # analyses_per_s and analysis_tail_ms on games; none on structure
    "linprog.optimal_face_vertices",
    # analysis_p50_ms on games
    "linprog.zero_sum_value",
    # analyses_per_s on structure
    "polytope.prune",
    "polytope.member",
    "polytope.subset",
    # analysis_tail_ms on structure, analyses_per_s on corpus-cli
    "core.hull",
    "core.is_rectangular",
    "core.condition",
    "core.dilation_report",
    # games, and the consistency share of corpus-cli
    "minimax.solve_a_priori",
    "minimax.solve_a_posteriori",  # also analysis_p50_ms on games
    "minimax.verify_saddle",
    "minimax.worst_case_loss",
    "minimax.worst_case_posterior_loss",
    # analyses_per_s on corpus-cli
    "consistency.sufficient_conditions",
    "consistency.check_weak_time_consistency",
    "consistency.check_time_consistency",
    "consistency.falsify_dynamic_consistency",
    # analysis_tail_ms on structure
    "calibration.check_calibration",
    "calibration.sharp_partition",
    "calibration.is_sharply_calibrated",
    # setup_s and analysis_p50_ms on corpus-cli; cli.run's self time is
    # argument parsing and formatting
    "problemfile.parse_problem_file",
    "cli.run",
    "corpus.run_case",
)

# Exact counts taken from a call's arguments and result.
_INFO = {
    "linprog.lp_solve": lambda args, result: result.status,
    "linprog.optimal_face_vertices": lambda args, result: len(result),
    "polytope.prune": lambda args, result: [len(args[0].generators), len(result.generators)],
    "core.hull": lambda args, result: len(result.generators),
    "calibration.sharp_partition": lambda args, result: result[1].examined,
}


class Tracer:
    """Records one span per call of each traced function.

    A span is ``[id, name, start, end, parent id, analysis id, info]``.
    Calls are nested and single-threaded, so the spans of one call's
    children never overlap.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.analysis = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self):
        for qualified in FUNCTIONS:
            importlib.import_module("credal." + qualified.split(".")[0])
        modules = [m for name, m in sys.modules.items() if name == "credal" or name.startswith("credal.")]
        for qualified in FUNCTIONS:
            modname, fname = qualified.split(".")
            orig = getattr(sys.modules["credal." + modname], fname)
            wrapper = self._wrap(qualified, orig)
            for mod in modules:
                if getattr(mod, fname, None) is orig:
                    self._saved.append((mod, fname, orig))
                    setattr(mod, fname, wrapper)

    def uninstall(self):
        for mod, fname, orig in reversed(self._saved):
            setattr(mod, fname, orig)
        self._saved.clear()

    def _wrap(self, name, fn):
        info = _INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, self.analysis, None]
            spans.append(span)
            stack.append(span[0])
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if info is not None:
                span[6] = info(args, result)
            return result

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_layer(spans) -> dict:
    """Calls, self time and exact counts per traced function.

    Self time is a span's duration minus the durations of its child
    spans.  Counts: LP solves by status, face vertices, hull
    generators, prune kept/given and partitions examined.
    """
    calls = dict.fromkeys(FUNCTIONS, 0)
    self_s = dict.fromkeys(FUNCTIONS, 0.0)
    children = {}
    for sid, name, start, end, parent, _analysis, _info in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    status = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    vertices = generators = given = kept = examined = 0
    for sid, name, start, end, parent, _analysis, info in spans:
        calls[name] += 1
        self_s[name] += (end - start) - children.get(sid, 0.0)
        if info is None:
            continue
        if name == "linprog.lp_solve":
            status[info] += 1
        elif name == "linprog.optimal_face_vertices":
            vertices += info
        elif name == "polytope.prune":
            given += info[0]
            kept += info[1]
        elif name == "core.hull":
            generators += info
        elif name == "calibration.sharp_partition":
            examined += info
    out = {}
    for name in FUNCTIONS:
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".self_s"] = (self_s[name], "s")
    solves = sum(status.values())
    for s, n in status.items():
        out["linprog.lp_solve." + s] = (n, "count")
    out["linprog.lp_solve.infeasible_share"] = (status["infeasible"] / solves if solves else 0.0, "ratio")
    out["linprog.optimal_face_vertices.vertices"] = (vertices, "count")
    out["polytope.prune.given"] = (given, "count")
    out["polytope.prune.kept"] = (kept, "count")
    out["polytope.prune.kept_share"] = (kept / given if given else 0.0, "ratio")
    out["core.hull.generators"] = (generators, "count")
    out["calibration.sharp_partition.examined"] = (examined, "count")
    return out
