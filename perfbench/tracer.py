"""Outside-in span tracer for setloc's public functions.

Each traced function is replaced, for the duration of a ``with Tracer():``
block, at the binding its callers look up: a module global such as
``setloc.estimator.update`` (which ``estimator.step`` and ``scenario`` both
resolve), the name a module imported for itself (``scenario.measure``,
``estimator.displacement_bounds``), or the ``from_points`` attribute of the
``ConvexPolygon`` class.  A call records one span -- id, parent id, name,
start, end and the time its child spans covered -- into flat in-memory
arrays; nothing is written until :meth:`Tracer.save`.  Work counters
(hull points, hypotheses, area added, ...) are taken from the arguments and
results of the same calls.  Leaving the block restores every binding to the
exact object it held before, also when the block raised.
"""

from __future__ import annotations

import itertools
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checkout import import_setloc

import_setloc()

from setloc import (correspondence, estimator, fastslam, geom2d,  # noqa: E402
                    scenario, sensing)
from setloc.geom2d import ConvexPolygon  # noqa: E402

# (owner, attribute, span name); the owner is where callers look the name up
BINDINGS = (
    *((estimator, f, f"estimator.{f}") for f in (
        "propagate", "propagate_omnidirectional", "update",
        "refine_rigid_body", "estimate_heading", "make_state")),
    *((correspondence, f, f"correspondence.{f}") for f in (
        "build_candidate_matrix", "enumerate_assignments")),
    *((geom2d, f, f"geom2d.{f}") for f in (
        "minkowski_sum", "intersect", "simplify_outer", "convex_hull",
        "negate", "angular_hull", "enclose_angles", "contains")),
    (ConvexPolygon, "from_points", "geom2d.ConvexPolygon.from_points"),
    (sensing, "feasible_marker_region", "sensing.feasible_marker_region"),
    (sensing, "feasible_sensor_region", "sensing.feasible_sensor_region"),
    (scenario, "measure", "sensing.measure"),
    (estimator, "displacement_bounds", "kinematics.displacement_bounds"),
    *((fastslam, f, f"fastslam.{f}") for f in (
        "predict", "weight_update", "resample", "estimate_body_particles",
        "heading_interval_particles")),
    (scenario, "compute_metrics", "scenario.compute_metrics"),
    (scenario, "sensitivity_sweep", "scenario.sensitivity_sweep"),
)

SPAN_NAMES = tuple(name for _, _, name in BINDINGS)
_ORIGINALS = tuple(vars(owner)[attr] for owner, attr, _ in BINDINGS)

# span columns: id, parent id (-1 at the top), name index, start ns, end ns,
# ns covered by child spans (and by counting their work)
_COLS = 6


@dataclass
class Counters:
    """Exact work counts taken at the traced boundaries."""

    hull_points: int = 0          # sum of n*m over minkowski sums that hull
    hull_out_vertices: int = 0    # vertices those sums returned
    intersect_empty: int = 0      # intersect calls that returned None
    area_added_m2: float = 0.0    # area simplify_outer added
    max_vertices: int = 0         # largest polygon any traced call returned
    candidate_true: int = 0       # true entries of candidate matrices
    candidate_tested: int = 0     # entries tested (rows x markers)
    hypotheses: int = 0           # assignments enumerated
    multi_hypothesis_batches: int = 0
    degenerate_resets: int = 0    # FastSLAM weight resets


def _observe_minkowski(c: Counters, args, result) -> None:
    a, b = args[0], args[1]
    if a.n > 1 and b.n > 1:        # a point operand is a translate, no hull
        c.hull_points += a.n * b.n
        c.hull_out_vertices += result.n


def _observe_intersect(c: Counters, args, result) -> None:
    if result is None:
        c.intersect_empty += 1


def _observe_simplify(c: Counters, args, result) -> None:
    c.area_added_m2 += geom2d.area(result) - geom2d.area(args[0])


def _observe_candidates(c: Counters, args, result) -> None:
    c.candidate_true += sum(sum(row) for row in result.rows)
    c.candidate_tested += result.n_rows * result.n_cols


def _observe_assignments(c: Counters, args, result) -> None:
    c.hypotheses += len(result)
    if len(result) > 1:
        c.multi_hypothesis_batches += 1


def _observe_weights(c: Counters, args, result) -> None:
    c.degenerate_resets += result.degenerate_resets - args[0].degenerate_resets


OBSERVERS = {
    "geom2d.minkowski_sum": _observe_minkowski,
    "geom2d.intersect": _observe_intersect,
    "geom2d.simplify_outer": _observe_simplify,
    "correspondence.build_candidate_matrix": _observe_candidates,
    "correspondence.enumerate_assignments": _observe_assignments,
    "fastslam.weight_update": _observe_weights,
}


@dataclass
class SpanStats:
    calls: int
    total_s: float
    self_s: float


class Tracer:
    """Context manager that traces :data:`BINDINGS` while it is open."""

    def __init__(self) -> None:
        self.counters = Counters()
        self._spans = array("q")
        self._saved: list = []      # (owner, attribute, original object)

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already active")
        ids = itertools.count()
        stack: list[list[int]] = []     # open spans: [id, child ns]
        try:
            for idx, (owner, attr, name) in enumerate(BINDINGS):
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, idx, name,
                                                     ids, stack))
                else:
                    patched = self._wrap(raw, idx, name, ids, stack)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, patched)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, idx: int, name: str, ids, stack):
        spans = self._spans
        counters = self.counters
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.extend((sid, parent, idx, t0, t1, frame[1]))
                if stack:
                    stack[-1][1] += t1 - t0
                raise
            t1 = clock()
            stack.pop()
            spans.extend((sid, parent, idx, t0, t1, frame[1]))
            if observe is not None:
                observe(counters, args, result)
            if type(result) is ConvexPolygon and result.n > counters.max_vertices:
                counters.max_vertices = result.n
            if stack:
                # the parent's self time excludes this call and its counting
                stack[-1][1] += clock() - t0
            return result

        return traced

    def spans(self) -> np.ndarray:
        """Every recorded span as an (n, 6) int64 array (see ``_COLS``)."""
        return np.frombuffer(self._spans, dtype=np.int64).reshape(-1, _COLS)

    def summary(self) -> dict[str, SpanStats]:
        """Calls, total and self time per span name (zero when never called)."""
        s = self.spans()
        dur = s[:, 4] - s[:, 3]
        own = dur - s[:, 5]
        out = {}
        for idx, name in enumerate(SPAN_NAMES):
            sel = s[:, 2] == idx
            out[name] = SpanStats(int(sel.sum()), float(dur[sel].sum()) * 1e-9,
                                  float(own[sel].sum()) * 1e-9)
        return out

    def save(self, path: Path) -> None:
        """Write the spans and the name table once, as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, spans=self.spans(), names=np.array(SPAN_NAMES),
                 columns=np.array(["id", "parent", "name", "start_ns",
                                   "end_ns", "child_ns"]))


def is_unpatched() -> bool:
    """True when every binding holds the object it held before any tracing."""
    return all(vars(owner)[attr] is raw
               for (owner, attr, _), raw in zip(BINDINGS, _ORIGINALS))


def layer_metrics(tracer: Tracer, degenerate_intersections: int,
                  overhead_ratio: float,
                  parallel_efficiency: float) -> dict[str, float]:
    """Every per-layer metric of the benchmark, by name.

    A layer the workload never calls reports 0 calls and 0 s; a ratio whose
    base is 0 reports 0.
    """
    stats = tracer.summary()
    c = tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name, kinds in LAYER_STATS:
        for kind in kinds:
            out[f"{name}.{kind}"] = getattr(stats[name], kind)
    out["correspondence.candidate_density"] = ratio(c.candidate_true,
                                                    c.candidate_tested)
    out["correspondence.hypotheses_per_batch"] = ratio(
        c.hypotheses, stats["correspondence.enumerate_assignments"].calls)
    out["correspondence.multi_hypothesis_batches"] = c.multi_hypothesis_batches
    out["geom2d.minkowski_sum.hull_points"] = c.hull_points
    out["geom2d.minkowski_sum.useful_ratio"] = ratio(c.hull_out_vertices,
                                                     c.hull_points)
    out["geom2d.intersect.empty_ratio"] = ratio(
        c.intersect_empty, stats["geom2d.intersect"].calls)
    out["geom2d.simplify_outer.area_added_m2"] = c.area_added_m2
    out["geom2d.max_vertices"] = c.max_vertices
    out["geom2d.degenerate_intersections"] = degenerate_intersections
    out["fastslam.degenerate_resets"] = c.degenerate_resets
    out["scenario.sensitivity_sweep.parallel_efficiency"] = parallel_efficiency
    out["trace.overhead_ratio"] = overhead_ratio
    return out


_FULL = ("calls", "self_s", "total_s")
_LEAF = ("calls", "self_s")

# which timing statistics each traced span reports
LAYER_STATS = (
    *((f"estimator.{f}", _FULL) for f in (
        "propagate", "propagate_omnidirectional", "update",
        "refine_rigid_body", "estimate_heading", "make_state")),
    ("correspondence.build_candidate_matrix", _LEAF),
    ("correspondence.enumerate_assignments", _LEAF),
    *((f"geom2d.{f}", _FULL) for f in (
        "minkowski_sum", "intersect", "simplify_outer", "convex_hull",
        "negate", "angular_hull")),
    *((f"geom2d.{f}", _LEAF) for f in (
        "enclose_angles", "contains", "ConvexPolygon.from_points")),
    ("sensing.feasible_marker_region", _LEAF),
    ("sensing.feasible_sensor_region", _LEAF),
    ("sensing.measure", _LEAF),
    ("kinematics.displacement_bounds", _LEAF),
    *((f"fastslam.{f}", _FULL) for f in (
        "predict", "weight_update", "resample", "estimate_body_particles",
        "heading_interval_particles")),
    ("scenario.compute_metrics", _FULL),
    ("scenario.sensitivity_sweep", ("total_s",)),
)


def is_timing(metric: str) -> bool:
    """Per-layer metrics that are times or time ratios; the rest are exact
    functions of the seed and compare exactly between two commits."""
    return metric.endswith("_s") or metric in (
        "scenario.sensitivity_sweep.parallel_efficiency", "trace.overhead_ratio")
