"""Set-theoretic localization filter.

Maintains convex uncertainty sets for every marker position, sensor position
and sensor orientation, and derives body and heading sets from them.  All
set operations either are exact or over-approximate, so if the true states
start inside their sets and all noise stays within its bounds, they remain
inside after every propagate / update / refine cycle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from . import correspondence, geom2d, sensing
from .correspondence import Assignment
from .geom2d import AngleInterval, ConvexPolygon, Interval
from .kinematics import Control, MarkerOffset, RobotModel, displacement_bounds
from .sensing import Measurement, SensorModel


class EmptySetFault(Exception):
    """An intersection came up empty: a noise or containment bound is broken."""

    def __init__(self, what: str, sensor: int | None = None,
                 marker: int | None = None):
        parts = [what]
        if sensor is not None:
            parts.append(f"sensor={sensor}")
        if marker is not None:
            parts.append(f"marker={marker}")
        super().__init__(", ".join(parts))
        self.what = what
        self.sensor = sensor
        self.marker = marker


class StepFault(Exception):
    """A step's update failed.  ``cause`` is the EmptySetFault,
    InconsistentBatch or CapExceeded; ``predicted`` is the step's k-stamped
    prediction, which alone is still a valid (if loose) bound."""

    def __init__(self, cause: Exception, predicted: "EstimatorState"):
        super().__init__(str(cause))
        self.cause = cause
        self.predicted = predicted


@dataclass(frozen=True)
class RigidBodySpec:
    """Pairwise marker distances and the heading offset of each marker pair."""

    distances: tuple[tuple[float, ...], ...]   # [i][j] = |p_i - p_j|
    bearings: tuple[tuple[float, ...], ...]    # [i][j] = body-frame angle of p_j - p_i

    @classmethod
    def from_offsets(cls, offsets: Sequence[MarkerOffset]) -> "RigidBodySpec":
        pts = [o.body_xy() for o in offsets]
        n = len(pts)
        dist = [[0.0] * n for _ in range(n)]
        bear = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                dx = pts[j][0] - pts[i][0]
                dy = pts[j][1] - pts[i][1]
                dist[i][j] = math.hypot(dx, dy)
                bear[i][j] = math.atan2(dy, dx)
        return cls(tuple(tuple(r) for r in dist), tuple(tuple(r) for r in bear))

    @property
    def n(self) -> int:
        return len(self.distances)

    @cached_property
    def balls(self) -> tuple[tuple[ConvexPolygon | None, ...], ...]:
        """[i][j] = ball_outer_polygon(distances[i][j]), None where i == j,
        built when first read: one polygon per distinct distance."""
        built = {r: geom2d.ball_outer_polygon(r)
                 for i, row in enumerate(self.distances)
                 for j, r in enumerate(row) if i != j}
        return tuple(tuple(None if i == j else built[r]
                           for j, r in enumerate(row))
                     for i, row in enumerate(self.distances))


@dataclass(frozen=True)
class EstimatorModels:
    """Static models and numeric policy shared by all estimator operations."""

    robot: RobotModel
    offsets: tuple[MarkerOffset, ...]
    sensors: tuple[SensorModel, ...]
    assignment_cap: int = correspondence.DEFAULT_ASSIGNMENT_CAP
    # motion model: None is the bicycle, a number the speed bound of a robot
    # that may move in any direction
    omni_v_max: float | None = None

    @cached_property
    def spec(self) -> RigidBodySpec:
        """The rigid-body constraints the marker offsets imply."""
        return RigidBodySpec.from_offsets(self.offsets)


@dataclass(frozen=True)
class EstimatorState:
    markers: tuple[ConvexPolygon, ...]
    sensor_xy: tuple[ConvexPolygon, ...]
    sensor_theta: tuple[AngleInterval, ...]
    heading: AngleInterval
    k: int = 0

    @cached_property
    def body(self) -> ConvexPolygon:
        """Convex envelope of the marker sets: the guaranteed body bound."""
        return geom2d.convex_hull(list(self.markers))


def make_state(markers: Sequence[ConvexPolygon],
               sensor_xy: Sequence[ConvexPolygon],
               sensor_theta: Sequence[AngleInterval],
               spec: RigidBodySpec | None = None,
               k: int = 0) -> EstimatorState:
    """Assemble a state, deriving the heading if possible."""
    state = EstimatorState(tuple(markers), tuple(sensor_xy),
                           tuple(sensor_theta), AngleInterval.full(), k)
    if spec is not None and len(markers) >= 2:
        state = replace(state, heading=estimate_heading(state, spec))
    return state


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def propagate(state: EstimatorState, u: Control,
              models: EstimatorModels) -> EstimatorState:
    """Predict all sets one step ahead; sensors are stationary.

    Each marker set grows by one box: the interval box bounding its
    displacement over the admissible controls and the current heading set,
    widened by the inf-norm disturbance bound eps_f, however small.  The
    heading set is widened by the turn-rate interval so it stays a valid
    bound even if no measurements arrive.
    """
    robot = models.robot
    f = robot.eps_f
    new_markers = []
    for poly, offset in zip(state.markers, models.offsets):
        dx, dy = displacement_bounds(u, state.heading, offset, robot,
                                     cover_rigid_step=True)
        new_markers.append(geom2d.grow_by_box(poly, dx.lo - f, dx.hi + f,
                                              dy.lo - f, dy.hi + f))
    v_lo, v_hi = u.v - robot.eps_v, u.v + robot.eps_v
    rates = [(v * robot.dt / robot.wheelbase) * math.sin(d)
             for v in (v_lo, v_hi)
             for d in (u.delta - robot.eps_delta, u.delta + robot.eps_delta)]
    turn = Interval(min(rates), max(rates))
    heading = state.heading.shift(turn.mid).widen(0.5 * turn.width)
    return replace(state, markers=tuple(new_markers), heading=heading)


def propagate_omnidirectional(state: EstimatorState, v_max: float,
                              dt: float) -> EstimatorState:
    """Prediction for a robot only known to move slower than v_max: each
    marker set grows by the box of half-side v_max * dt, however small."""
    if v_max < 0.0:
        raise ValueError("v_max must be >= 0")
    r = v_max * dt
    new_markers = tuple(geom2d.grow_by_box(p, -r, r, -r, r)
                        for p in state.markers)
    return replace(state, markers=new_markers)


# ---------------------------------------------------------------------------
# measurement update
# ---------------------------------------------------------------------------

def bearing_cone_too_wide(model: SensorModel, theta: AngleInterval) -> bool:
    """Whether a sensor's bearing cone is at least pi/2 wide and so has no
    bounded convex superset.  update skips such a sensor's batches; that never
    cuts the truth, and the orientation interval only narrows."""
    return model.eps_bearing + theta.half_width >= math.pi / 2.0


def _sectors(batch: Sequence[Measurement], model: SensorModel,
             theta: AngleInterval
             ) -> tuple[tuple[geom2d.Cone, ...], tuple[ConvexPolygon, ...]]:
    """Each measurement's cone and radii (sensing.measurement_cone) and its
    sector of marker positions seen from the sensor, built from that cone,
    under the sensor orientation interval theta."""
    cones = tuple(sensing.measurement_cone(
        m.bearing, m.range, model, theta.center, theta.half_width)
        for m in batch)
    return cones, tuple(geom2d.sector_outer_polygon(*c) for c in cones)


def _narrow_orientation(theta: AngleInterval, sensor_xy: ConvexPolygon,
                        markers: Sequence[ConvexPolygon],
                        batch: Sequence[Measurement],
                        assigns: Sequence[Assignment], eps_bearing: float,
                        sensor: int) -> AngleInterval:
    """The orientation phase: each hypothesis intersects one interval per
    matched measurement; the union over hypotheses must still cover the
    truth."""
    # directions from the sensor set to each matched marker set: the arc
    # of marker + (-sensor), with the sensor set reflected once per set
    sensor_back = sensor_xy.reflection
    spans = {}
    for j in {j for a in assigns for j in a}:
        spans[j] = geom2d.angular_hull_sum(markers[j], sensor_back)
    theta_options = []
    for a in assigns:
        itv: AngleInterval | None = None
        for q, j in enumerate(a):
            span = spans[j]
            if span.is_full:
                continue
            cand = AngleInterval(span.center - batch[q].bearing,
                                 min(math.pi, span.half_width + eps_bearing))
            itv = cand if itv is None else geom2d.intersect_angles(itv, cand)
            if itv is None:
                break
        else:
            theta_options.append(itv if itv is not None else AngleInterval.full())
    if not theta_options:
        raise EmptySetFault("orientation update", sensor=sensor)
    new_theta = geom2d.intersect_angles(theta,
                                        geom2d.enclose_angles(theta_options))
    if new_theta is None:
        raise EmptySetFault("orientation update", sensor=sensor)
    return new_theta


def _narrow_position(sensor_xy: ConvexPolygon, markers: Sequence[ConvexPolygon],
                     sectors: Sequence[ConvexPolygon],
                     assigns: Sequence[Assignment],
                     kept: set[tuple[int, int]], sensor: int) -> ConvexPolygon:
    """The position phase: per hypothesis, clip the sensor set by every
    matched marker set plus the reflected sector (the sensor positions that
    see the marker there), then hull the union over hypotheses.  While a
    hypothesis's region is still the sensor set, a pair in kept (settled by
    geom2d.settle_by_inner_bounds) is not clipped, and its sector not
    reflected.  Each (slot, marker) pair's sum boundary is built once, for
    the first hypothesis that clips by it."""
    bounds: dict[tuple[int, int], geom2d.SumBoundary] = {}
    xy_options = []
    for a in assigns:
        region = sensor_xy
        for q, j in enumerate(a):
            if region is sensor_xy and (q, j) in kept:
                continue
            bound = bounds.get((q, j))
            if bound is None:
                bound = bounds[q, j] = geom2d.sum_boundary(
                    markers[j], sectors[q].reflection)
            region = bound.clip(region)
            if region is None:
                break
        else:
            xy_options.append(region)
    if not xy_options:
        raise EmptySetFault("position update", sensor=sensor)
    # the hull of one set, however often it is listed, is that set
    new_xy = xy_options[0]
    if any(option is not new_xy for option in xy_options):
        new_xy = geom2d.convex_hull(xy_options)
    return geom2d.simplify_outer(new_xy)


def update(predicted: EstimatorState, batches: Sequence[Sequence[Measurement]],
           models: EstimatorModels) -> EstimatorState:
    """Condition all sets on one round of per-sensor measurement batches.

    One pass over the sensors.  Per sensor: enumerate the correspondence
    hypotheses, then narrow the orientation interval and the position set
    (unions across hypotheses are over-approximated by enclosing arcs /
    convex hulls, which keeps every update a superset of the exact one),
    and gather the sum boundary that each marker it measured under every
    hypothesis is clipped by.  Every phase reads the predicted marker sets.
    A sensor whose bearing cone is too wide (bearing_cone_too_wide) is
    skipped.  After the pass each measured marker set is clipped once, by
    the boundaries of all its sensors in sensor order, then hulled and
    simplified once: the same half-planes the sensors would clip by in
    turn, without the hulls and simplifications between them, which mend
    rounding or grow a set but clip by no half-plane.

    Before a phase builds any sum, one pass of inner bounds over the
    batch's (slot, marker) pairs (geom2d.settle_by_inner_bounds) may show
    that it would return the predicted orientation, or that a pair's clip
    would return the predicted position set; the phase, or the clip, is
    then skipped, so the result is the same to the last bit.
    """
    n_markers = len(predicted.markers)
    sensor_theta = list(predicted.sensor_theta)
    sensor_xy = list(predicted.sensor_xy)
    # per marker: (sensor, boundary) of every sum it is clipped by, in
    # sensor order
    cuts: dict[int, list[tuple[int, geom2d.SumBoundary]]] = {}

    for i, batch in enumerate(batches):
        if not batch:
            continue
        model = models.sensors[i]
        theta = predicted.sensor_theta[i]
        if bearing_cone_too_wide(model, theta):
            continue
        xy = predicted.sensor_xy[i]
        cones, sectors = _sectors(batch, model, theta)
        boundaries = [geom2d.sum_boundary(xy, s) for s in sectors]
        cmat = correspondence.build_candidate_matrix(
            boundaries, predicted.markers, sensor_id=i)
        assigns = correspondence.enumerate_assignments(cmat, models.assignment_cap)
        if not assigns:
            raise EmptySetFault("no consistent correspondence", sensor=i)
        pairs = {(q, j) for a in assigns for q, j in enumerate(a)}
        bearings = [m.bearing for m in batch]
        theta_kept, kept = geom2d.settle_by_inner_bounds(
            theta, xy, predicted.markers, pairs, bearings, cones,
            model.eps_bearing)

        if not theta_kept:
            new_theta = _narrow_orientation(
                theta, xy, predicted.markers, batch, assigns,
                model.eps_bearing, i)
            # the position and marker phases use the sectors under the new
            # orientation interval, and so do the position decisions; where
            # no bit changes (repr tells -0.0 from 0.0, == does not) the
            # predicted object is kept, so what was made from it is reused
            if repr(new_theta) != repr(theta):
                sensor_theta[i] = new_theta
                cones, sectors = _sectors(batch, model, new_theta)
                kept = geom2d.settle_by_inner_bounds(
                    new_theta, xy, predicted.markers, pairs, bearings, cones,
                    model.eps_bearing)[1]
        # with every pair kept the phase would return simplify_outer(xy),
        # which is xy itself: in a run, a predicted sensor set is a box or
        # an earlier update's simplify_outer output (a larger set passed in
        # directly stays as every clip returns it)
        if len(kept) < len(pairs):
            sensor_xy[i] = _narrow_position(xy, predicted.markers, sectors,
                                            assigns, kept, i)

        # markers: only a sensor certain to have measured marker j narrows
        # it, to the sensor set plus the sector (or the hull of the sectors)
        # of the slots that measured it under the hypotheses.  A marker of
        # one slot, where the phases above kept the predicted sensor set and
        # orientation (and so the sectors), is clipped by the boundary built
        # for that slot's candidate row.
        unchanged = sensor_xy[i] is xy and sensor_theta[i] is theta
        for j in correspondence.markers_with_certain_measurement(assigns,
                                                                 n_markers):
            slots = sorted({a.index(j) for a in assigns})
            if len(slots) == 1 and unchanged:
                boundary = boundaries[slots[0]]
            else:
                cone = sectors[slots[0]] if len(slots) == 1 else \
                    geom2d.convex_hull([sectors[q] for q in slots])
                boundary = geom2d.sum_boundary(sensor_xy[i], cone)
            cuts.setdefault(j, []).append((i, boundary))

    markers = list(predicted.markers)
    for j, sums in cuts.items():
        bounds = [b for _, b in sums]
        narrowed = geom2d.clip_by_sums(markers[j], bounds)
        if narrowed is None:
            # the clip reads its boundaries in order: the fault names the
            # first sensor whose boundary, after those before it, empties
            # the set
            i = next(i for k, (i, _) in enumerate(sums, 1)
                     if geom2d.clip_by_sums(markers[j], bounds[:k]) is None)
            raise EmptySetFault("marker update", sensor=i, marker=j)
        markers[j] = geom2d.simplify_outer(narrowed)
    return EstimatorState(tuple(markers), tuple(sensor_xy), tuple(sensor_theta),
                          predicted.heading, predicted.k)


# ---------------------------------------------------------------------------
# rigid-body refinement and reconstruction
# ---------------------------------------------------------------------------

def refine_rigid_body(state: EstimatorState,
                      spec: RigidBodySpec) -> EstimatorState:
    """One sweep of pairwise distance constraints over the marker sets.

    Marker i must lie within distance r_ij of marker j, so intersecting with
    the other set grown by a circumscribed disk polygon (spec.balls) never
    cuts the truth.
    """
    markers = list(state.markers)
    for i, j in itertools.permutations(range(len(markers)), 2):
        narrowed = geom2d.sum_boundary(markers[j],
                                       spec.balls[i][j]).clip(markers[i])
        if narrowed is None:
            raise EmptySetFault("rigid-body refinement", marker=i)
        markers[i] = geom2d.simplify_outer(narrowed)
    return replace(state, markers=tuple(markers))


def estimate_heading(state: EstimatorState, spec: RigidBodySpec) -> AngleInterval:
    """Heading interval from the direction spans of marker-set differences.

    The vector from marker i to marker j points along heading + bearing_ij,
    so each unordered pair constrains the heading; reversed pairs give the
    same constraint shifted by pi and are skipped.
    """
    acc = AngleInterval.full()
    n = len(state.markers)
    for i in range(n - 1):
        back = geom2d.negate(state.markers[i])
        for j in range(i + 1, n):
            span = geom2d.angular_hull_sum(state.markers[j], back)
            if span.is_full:
                continue
            cand = span.shift(-spec.bearings[i][j])
            nxt = geom2d.intersect_angles(acc, cand)
            if nxt is None:
                raise EmptySetFault("heading estimate", marker=j)
            acc = nxt
    return acc


def step(state: EstimatorState, u: Control | None,
         batches: Sequence[Sequence[Measurement]],
         models: EstimatorModels) -> EstimatorState:
    """Full cycle: propagate under the models' motion model (the
    omnidirectional one takes no control, u may be None), update, and with
    two or more markers refine the marker sets and reconstruct the heading.

    Raises StepFault when the update, refinement or heading fails.
    """
    if models.omni_v_max is None:
        predicted = propagate(state, u, models)
    else:
        predicted = propagate_omnidirectional(state, models.omni_v_max,
                                              models.robot.dt)
    predicted = replace(predicted, k=state.k + 1)
    spec = models.spec
    try:
        updated = update(predicted, batches, models)
        if spec.n < 2:
            return updated
        refined = refine_rigid_body(updated, spec)
        return replace(refined, heading=estimate_heading(refined, spec))
    except (EmptySetFault, correspondence.InconsistentBatch,
            correspondence.CapExceeded) as exc:
        raise StepFault(exc, predicted) from exc
