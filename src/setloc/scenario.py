"""Synthetic-world runner: configs, truth simulation, metrics and sweeps.

A run is world -> measurement stream -> tracker -> scorer.  A per-mode world
moves the truth with bounded uniform noise; per-sensor measurement batches
are drawn from it (shuffled, so correspondence is genuinely latent); one
loop steps the chosen estimators under the run's fault policy and scores
them per step.  Replay runs the same tracker over a recorded stream.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import io
import math
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Iterator, Sequence

import numpy as np

from . import estimator as est
from . import fastslam as fs
from . import geom2d
from .geom2d import AngleInterval, ConvexPolygon, wrap_angle
from .kinematics import Control, MarkerOffset, RobotModel, RobotPose, bicycle_step, place_marker
from .sensing import ANGLE_RANGE, Measurement, SensorModel, SensorPose, measure

MODE_BICYCLE = "bicycle"
MODE_OMNI = "omnidirectional"

SWEEP_PARAMETERS = ("eps_wa", "eps_wr", "V_Pi0", "eps_v", "eps_delta")

CSV_COLUMNS = (
    "k",
    "set_m1", "set_m2", "set_contained_body", "set_contained_heading",
    "set_contained_markers", "set_contained_sensors",
    "set_body_area", "set_heading_width", "set_wall_ms",
    "fs_m1", "fs_m2", "fs_contained_body", "fs_contained_heading",
    "fs_body_area", "fs_heading_width", "fs_wall_ms",
)


class ConfigError(Exception):
    """Configuration file problem; message names the offending section/key."""


class ScenarioFault(Exception):
    """Estimator fault raised during a run, annotated with the step index."""

    def __init__(self, step: int, cause: Exception):
        super().__init__(f"step {step}: {cause}")
        self.step = step
        self.cause = cause


@dataclass(frozen=True)
class SensorSite:
    pose: SensorPose
    model: SensorModel


@dataclass(frozen=True)
class ScenarioConfig:
    mode: str
    seed: int
    estimators: str                      # "set", "fastslam" or "both"
    assignment_cap: int
    robot: RobotModel
    start: RobotPose
    offsets: tuple[MarkerOffset, ...]
    sensors: tuple[SensorSite, ...]
    trajectory: tuple[tuple[float, float], ...]   # (v, delta) or (speed, heading)
    initial_marker_area: float           # m^2, square box per marker
    initial_sensor_area: float           # m^2
    initial_sensor_theta: float          # rad, full interval width
    marker_center_offset: tuple[float, float] = (0.0, 0.0)
    fastslam_particles: int = fs.DEFAULT_PARTICLES
    omni_v_max: float = 0.0
    omni_radius: float = 0.0

    @property
    def n_markers(self) -> int:
        return len(self.offsets)

    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

    def sensor_models(self) -> tuple[SensorModel, ...]:
        return tuple(s.model for s in self.sensors)

    def wants(self, which: str) -> bool:
        return self.estimators in (which, "both")


def _body_corners(robot: RobotModel) -> tuple[tuple[float, float], ...]:
    """Body-frame corners of the body rectangle, counter-clockwise from the
    rear right; the overhangs over the axle are symmetric."""
    rear = -(robot.body_length - robot.wheelbase) / 2.0
    front = rear + robot.body_length
    half_w = robot.body_width / 2.0
    return ((rear, -half_w), (front, -half_w), (front, half_w), (rear, half_w))


def corner_marker_offsets(robot: RobotModel) -> tuple[MarkerOffset, ...]:
    """Markers at the four body corners."""
    return tuple(MarkerOffset(math.hypot(x, y), math.atan2(y, x))
                 for x, y in _body_corners(robot))


def body_polygon(pose: RobotPose, robot: RobotModel) -> ConvexPolygon:
    """True body rectangle in world coordinates."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    pts = [(pose.x + c * bx - s * by, pose.y + s * bx + c * by)
           for bx, by in _body_corners(robot)]
    return ConvexPolygon.from_points(pts)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    m1: float
    m2: float
    contained_body: bool
    contained_heading: bool
    area: float                # the body estimate's, as geom2d.area gives it


def _overlap_ratio(body_est: ConvexPolygon, truth_region: ConvexPolygon,
                   holds_truth: bool, est_area: float) -> float:
    """Share of the body estimate's area (est_area) that the true body
    covers.

    The overlap is the true body clipped by the estimate.  Where the
    estimate holds the true body (holds_truth: contains_polygon at
    EPS_GEOM) no line of it cuts, and the clip would return the true body
    itself: contains_polygon and the clip test the same side formula with
    the same slack.  So the true body is taken as the overlap, unclipped.
    """
    overlap = truth_region if holds_truth \
        else geom2d.intersect(truth_region, body_est)
    if overlap is None or est_area <= 0.0:
        return 0.0
    return geom2d.area(overlap) / est_area


def compute_metrics(body_est: ConvexPolygon, heading_est: AngleInterval,
                    truth_region: ConvexPolygon, truth_theta: float) -> Metrics:
    """Body-overlap ratio and heading-interval deviation against the truth."""
    contained_body = geom2d.contains_polygon(body_est, truth_region)
    est_area = geom2d.area(body_est)
    m1 = _overlap_ratio(body_est, truth_region, contained_body, est_area)
    hi_dev = abs(wrap_angle(heading_est.hi - truth_theta))
    lo_dev = abs(wrap_angle(heading_est.lo - truth_theta))
    m2 = hi_dev + lo_dev if not heading_est.is_full else 2.0 * math.pi
    contained_heading = heading_est.contains(truth_theta)
    return Metrics(m1, m2, contained_body, contained_heading, est_area)


@dataclass
class StepRecord:
    k: int
    set_metrics: Metrics | None = None
    set_contained_markers: bool | None = None
    set_contained_sensors: bool | None = None
    set_heading_width: float | None = None
    set_wall_ms: float | None = None
    fs_metrics: Metrics | None = None
    fs_heading_width: float | None = None
    fs_wall_ms: float | None = None


@dataclass
class RunRecord:
    mode: str
    seed: int
    rows: list[StepRecord] = field(default_factory=list)
    geometry: list[str] = field(default_factory=list)
    fs_degenerate_resets: int = 0
    set_fallbacks: int = 0
    # recorded measurement stream (one serialized record per measurement),
    # replayable through replay_run
    measurements: list[str] = field(default_factory=list)

    def set_m1(self) -> list[float]:
        return [r.set_metrics.m1 for r in self.rows if r.set_metrics]

    def set_m2(self) -> list[float]:
        return [r.set_metrics.m2 for r in self.rows if r.set_metrics]

    def fs_m1(self) -> list[float]:
        return [r.fs_metrics.m1 for r in self.rows if r.fs_metrics]

    def fs_m2(self) -> list[float]:
        return [r.fs_metrics.m2 for r in self.rows if r.fs_metrics]

    def _set_contained(self) -> list[bool]:
        return [r.set_metrics.contained_body and r.set_metrics.contained_heading
                and r.set_contained_markers and r.set_contained_sensors
                for r in self.rows if r.set_metrics]

    def containment_rate(self) -> float:
        held = self._set_contained()
        return sum(held) / len(held) if held else math.nan

    def to_csv(self, include_timings: bool = False) -> str:
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for r in self.rows:
            cells = [str(r.k)]
            if r.set_metrics:
                cells += [repr(r.set_metrics.m1), repr(r.set_metrics.m2),
                          str(int(r.set_metrics.contained_body)),
                          str(int(r.set_metrics.contained_heading)),
                          str(int(r.set_contained_markers)),
                          str(int(r.set_contained_sensors)),
                          repr(r.set_metrics.area), repr(r.set_heading_width),
                          repr(r.set_wall_ms) if include_timings else "0"]
            else:
                cells += [""] * 9
            if r.fs_metrics:
                cells += [repr(r.fs_metrics.m1), repr(r.fs_metrics.m2),
                          str(int(r.fs_metrics.contained_body)),
                          str(int(r.fs_metrics.contained_heading)),
                          repr(r.fs_metrics.area), repr(r.fs_heading_width),
                          repr(r.fs_wall_ms) if include_timings else "0"]
            else:
                cells += [""] * 7
            out.write(",".join(cells) + "\n")
        return out.getvalue()


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def measurement_to_line(step: int, m: Measurement) -> str:
    rng = "null" if m.range is None else _fmt(m.range)
    return (f'{{"step": {step}, "sensor": {m.sensor_id}, "slot": {m.slot}, '
            f'"bearing": {_fmt(m.bearing)}, "range": {rng}}}')


def measurement_from_line(line: str) -> tuple[int, Measurement]:
    import json
    try:
        obj = json.loads(line)
        step, sensor, slot = obj["step"], obj["sensor"], obj["slot"]
        # a JSON integer, not a bool, a float or a string
        if not all(type(v) is int for v in (step, sensor, slot)):
            raise ValueError("step, sensor and slot must be integers")
        # finite JSON numbers (range may be null), not a bool or a string
        bearing, rng = obj["bearing"], obj["range"]
        if not all(type(v) in (int, float) and math.isfinite(v)
                   for v in ((bearing,) if rng is None else (bearing, rng))):
            raise ValueError("bearing and range must be finite numbers")
        return step, Measurement(float(bearing),
                                 None if rng is None else float(rng),
                                 sensor, slot)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad measurement record {line!r}: {exc}") from exc


def batches_from_lines(lines: Sequence[str], n_steps: int, n_sensors: int,
                       n_markers: int) -> list[list[list[Measurement]]]:
    """Group serialized measurement records into per-step, per-sensor
    batches sorted by slot, each slot a distinct marker."""
    records: list[list[list[tuple[Measurement, str]]]] = \
        [[[] for _ in range(n_sensors)] for _ in range(n_steps)]
    for line in lines:
        if not line.strip():
            continue
        step, m = measurement_from_line(line)
        if not (1 <= step <= n_steps and 0 <= m.sensor_id < n_sensors):
            raise ConfigError(f"measurement record out of range: {line!r}")
        records[step - 1][m.sensor_id].append((m, line))
    for step, step_records in enumerate(records, start=1):
        for sensor, batch in enumerate(step_records):
            if len(batch) > n_markers:
                raise ConfigError(f"step {step}, sensor {sensor}: {len(batch)} "
                                  f"measurement records for {n_markers} markers")
            batch.sort(key=lambda r: r[0].slot)
            for k, (m, line) in enumerate(batch):
                if not 0 <= m.slot < n_markers or \
                        (k and batch[k - 1][0].slot == m.slot):
                    raise ConfigError(f"step {step}, sensor {sensor}: slot of "
                                      f"{line!r} repeats or is no marker's")
    return [[[m for m, _ in batch] for batch in step_records]
            for step_records in records]


def _geometry_tail(obj_id: str, poly: ConvexPolygon | None = None,
                   interval: AngleInterval | None = None,
                   pose: tuple[float, ...] | None = None) -> str:
    """A geometry.ndjson record after its step: '"id": ..., ...}'.  Each
    vertex is one "%.17g" format, which writes what _fmt writes."""
    parts = [f'"id": "{obj_id}"']
    if poly is not None:
        vs = ", ".join(["[%.17g, %.17g]" % v for v in poly.vertices])
        parts.append(f'"vertices": [{vs}]')
    if interval is not None:
        parts.append(f'"interval": [{_fmt(interval.lo)}, {_fmt(interval.hi)}]')
    if pose is not None:
        parts.append(f'"pose": [{", ".join(_fmt(x) for x in pose)}]')
    return ", ".join(parts) + "}"


def _geometry_line(step: int, obj_id: str, **sets) -> str:
    return f'{{"step": {step}, ' + _geometry_tail(obj_id, **sets)


# ---------------------------------------------------------------------------
# initial sets
# ---------------------------------------------------------------------------

def _centered_box(center: tuple[float, float], area: float) -> ConvexPolygon:
    h = 0.5 * math.sqrt(max(area, 0.0))
    return ConvexPolygon.box(center[0] - h, center[0] + h,
                             center[1] - h, center[1] + h)


def initial_sets(cfg: ScenarioConfig) -> tuple[list[ConvexPolygon],
                                               list[ConvexPolygon],
                                               list[AngleInterval]]:
    markers = []
    odx, ody = cfg.marker_center_offset
    for off in cfg.offsets:
        true_pt = place_marker(cfg.start, off)
        markers.append(_centered_box((true_pt[0] + odx, true_pt[1] + ody),
                                     cfg.initial_marker_area))
    sensor_xy = [_centered_box(s.pose.xy, cfg.initial_sensor_area)
                 for s in cfg.sensors]
    sensor_theta = [AngleInterval(s.pose.theta, 0.5 * cfg.initial_sensor_theta)
                    for s in cfg.sensors]
    return markers, sensor_xy, sensor_theta


def _numbers(cfg: ScenarioConfig) -> Iterator[tuple[str, float]]:
    """Every real number of a config, named by its section and key."""
    r, s = cfg.robot, cfg.start
    yield from ((f"[robot] {key}", v) for key, v in (
        ("wheelbase", r.wheelbase), ("dt", r.dt),
        ("body_length", r.body_length), ("body_width", r.body_width),
        ("eps_v", r.eps_v), ("eps_delta_deg", r.eps_delta),
        ("eps_f", r.eps_f), ("x0", s.x), ("y0", s.y), ("theta0_deg", s.theta)))
    yield from ((f"[initial_sets] {key}", v) for key, v in (
        ("marker_area", cfg.initial_marker_area),
        ("sensor_area", cfg.initial_sensor_area),
        ("sensor_theta_deg", cfg.initial_sensor_theta),
        ("marker_center_dx", cfg.marker_center_offset[0]),
        ("marker_center_dy", cfg.marker_center_offset[1])))
    yield "[omni] v_max", cfg.omni_v_max
    yield "[omni] body_radius", cfg.omni_radius
    for i, site in enumerate(cfg.sensors, start=1):
        m, p = site.model, site.pose
        yield from ((f"[sensor.{i}] {key}", v) for key, v in (
            ("eps_bearing_deg", m.eps_bearing), ("eps_range", m.eps_range),
            ("fov_deg", m.fov), ("max_range", m.max_range),
            ("x", p.x), ("y", p.y), ("theta_deg", p.theta)))
    for i, (v, angle) in enumerate(cfg.trajectory, start=1):
        yield f"[trajectory] leg {i} speed", v
        yield f"[trajectory] leg {i} angle", angle


def validate_config(cfg: ScenarioConfig) -> list[str]:
    """All violated invariants of a scenario, empty when runnable."""
    problems = [f"{key} must be a finite number"
                for key, v in _numbers(cfg) if not math.isfinite(v)]
    if problems:
        # nothing below is meaningful, and initial_sets cannot run
        return problems
    if cfg.mode not in (MODE_BICYCLE, MODE_OMNI):
        problems.append(f"unknown mode {cfg.mode!r}")
    if not cfg.trajectory:
        problems.append("trajectory is empty")
    if not cfg.sensors:
        problems.append("no sensors configured")
    if cfg.estimators not in ("set", "fastslam", "both"):
        problems.append(f"unknown estimators selection {cfg.estimators!r}")
    if cfg.seed < 0:
        # numpy's SeedSequence takes only non-negative seeds
        problems.append("[scenario] seed must be >= 0")
    if cfg.assignment_cap < 1:
        problems.append("[scenario] assignment_cap must be >= 1")
    if cfg.fastslam_particles < 1:
        problems.append("[fastslam] particles must be >= 1")
    if cfg.mode == MODE_OMNI:
        if cfg.omni_v_max < 0.0:
            problems.append("omni v_max must be >= 0")
        if cfg.omni_radius < 0.0:
            problems.append("[omni] body_radius must be >= 0")
        if cfg.wants("fastslam"):
            problems.append("fastslam estimator supports bicycle mode only")
        for i, (speed, _) in enumerate(cfg.trajectory):
            if speed > cfg.omni_v_max + 1e-12:
                problems.append(f"trajectory leg {i + 1} exceeds v_max")
                break
    if cfg.mode == MODE_BICYCLE:
        for i, (_, delta) in enumerate(cfg.trajectory):
            if abs(delta) + cfg.robot.eps_delta >= math.pi / 2.0:
                problems.append(f"trajectory leg {i + 1}: |delta|+eps_delta "
                                f"reaches pi/2")
                break
        # the motion bounds square each marker's distance over the wheelbase
        ratios = [off.delta_l / cfg.robot.wheelbase for off in cfg.offsets]
        if not all(math.isfinite(r * r) for r in ratios):
            problems.append("[robot] wheelbase is too small: a marker's "
                            "distance over it overflows when squared")
    for key, size in (("[initial_sets] marker_area", cfg.initial_marker_area),
                      ("[initial_sets] sensor_area", cfg.initial_sensor_area),
                      ("[robot] body_length", cfg.robot.body_length),
                      ("[robot] body_width", cfg.robot.body_width)):
        if size < 0.0:
            problems.append(f"{key} must be >= 0")
    if not 0.0 <= cfg.initial_sensor_theta <= 2.0 * math.pi:
        # initial_sets cannot build the orientation intervals
        problems.append("[initial_sets] sensor_theta_deg must be in [0, 360]")
        return problems
    # the containment hypothesis: every true state inside its initial set
    markers, sensor_xy, sensor_theta = initial_sets(cfg)
    for j, off in enumerate(cfg.offsets):
        if not geom2d.contains(markers[j], place_marker(cfg.start, off)):
            problems.append(f"initial containment violated: true marker {j + 1} "
                            f"outside its initial set")
    for i, site in enumerate(cfg.sensors):
        if not geom2d.contains(sensor_xy[i], site.pose.xy):
            problems.append(f"initial containment violated: true sensor {i + 1} "
                            f"position outside its initial set")
        if not sensor_theta[i].contains(site.pose.theta):
            problems.append(f"initial containment violated: true sensor {i + 1} "
                            f"orientation outside its initial interval")
    if not problems:
        try:
            est.make_state(markers, sensor_xy, sensor_theta,
                           est.RigidBodySpec.from_offsets(cfg.offsets))
        except est.EmptySetFault:
            scale = max(abs(x) for m in markers for xy in m.vertices for x in xy)
            problems.append(
                f"[robot] x0, y0: the initial marker sets admit no heading: "
                f"float rounding at coordinates up to {scale:g} m (steps of "
                f"{math.ulp(scale):g} m) does not keep the body's shape")
    return problems


# ---------------------------------------------------------------------------
# simulation: world -> measurement stream -> tracker -> scorer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Truth:
    """The world's true state after one step."""

    markers: tuple[tuple[float, float], ...]
    region: ConvexPolygon                 # true body
    heading: float | None                 # None: the world keeps no heading
    pose: tuple[float, ...]               # as geometry.ndjson records it


def _bicycle_truth(pose: RobotPose, cfg: ScenarioConfig) -> Truth:
    return Truth(tuple(place_marker(pose, off) for off in cfg.offsets),
                 body_polygon(pose, cfg.robot), pose.theta,
                 (pose.x, pose.y, pose.theta))


def _bicycle_world(cfg: ScenarioConfig, trajectory: Sequence[tuple[float, float]],
                   rng: np.random.Generator) -> Iterator[tuple[int, Control, Truth]]:
    """(k, control, truth) of a vehicle under bounded speed and steering noise."""
    robot = cfg.robot
    pose = cfg.start
    for k, (v, delta) in enumerate(trajectory, start=1):
        u = Control(v, delta)
        w_v = rng.uniform(-robot.eps_v, robot.eps_v)
        w_d = rng.uniform(-robot.eps_delta, robot.eps_delta)
        assert abs(w_v) <= robot.eps_v and abs(w_d) <= robot.eps_delta
        pose = bicycle_step(pose, u, w_v, w_d, robot)
        yield k, u, _bicycle_truth(pose, cfg)


def _omni_world(cfg: ScenarioConfig, trajectory: Sequence[tuple[float, float]],
                rng: np.random.Generator) -> Iterator[tuple[int, None, Truth]]:
    """(k, control, truth) of an omnidirectional robot's centre; its motion
    model takes no control, only the speed bound."""
    dt = cfg.robot.dt
    v_max = cfg.omni_v_max
    center = (cfg.start.x, cfg.start.y)
    disk = geom2d.ball_outer_polygon(cfg.omni_radius, 32)
    for k, (speed, heading) in enumerate(trajectory, start=1):
        # speed wanders within its bound; the direction follows the leg
        sp = rng.uniform(0.0, min(speed, v_max)) if v_max > 0.0 else 0.0
        center = (center[0] + sp * dt * math.cos(heading),
                  center[1] + sp * dt * math.sin(heading))
        # a body of radius 0 is the centre itself, a ring of one vertex: the
        # truth is scored as it is, never widened to a set with an area
        region = geom2d.translate(disk, *center) if cfg.omni_radius > 0.0 \
            else ConvexPolygon((center,))
        yield k, None, Truth((center,), region, None, center)


def _noise_bounds(sensors: Sequence[SensorSite], n_markers: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The low and high bounds of a step's noise draw (_measurement_batches):
    per sensor, per marker, bearing then range.  They are the same at every
    step, so a run builds them once."""
    high = np.array([eps for site in sensors for _ in range(n_markers)
                     for eps in (site.model.eps_bearing, site.model.eps_range)],
                    dtype=float)
    return np.negative(high), high


def _measurement_batches(markers: Sequence[tuple[float, float]],
                         sensors: Sequence[SensorSite],
                         noise_bounds: tuple[np.ndarray, np.ndarray],
                         rng_meas: np.random.Generator,
                         rng_shuffle: np.random.Generator
                         ) -> list[list[Measurement]]:
    """Each sensor's shuffled batch.  The step's noise is drawn in one call
    within noise_bounds (_noise_bounds), which is the order and the stream
    of one scalar draw each: angle-only sensors and markers out of view
    consume their draws too.  Each measurement is made with its place in
    the unshuffled batch as its slot, and made again only where the shuffle
    moves it."""
    noise = iter(rng_meas.uniform(*noise_bounds).tolist())
    batches: list[list[Measurement]] = []
    for i, site in enumerate(sensors):
        pose, model = site.pose, site.model
        found: list[Measurement] = []
        for pt in markers:
            w_a, w_r = next(noise), next(noise)
            m = measure(pose, model, pt, w_a, w_r, sensor_id=i, slot=len(found))
            if m is not None:
                found.append(m)
        # a batch of 0 or 1 has one order, and numpy draws nothing for it
        if len(found) > 1:
            order = rng_shuffle.permutation(len(found)).tolist()
            found = [found[q] if q == slot else
                     Measurement(found[q].bearing, found[q].range, i, slot)
                     for slot, q in enumerate(order)]
        batches.append(found)
    return batches


def _check_counts(**counts: int | None) -> None:
    """Raise ConfigError for each count that is given and below 1."""
    bad = [f"{name} must be >= 1 (got {n})" for name, n in counts.items()
           if n is not None and n < 1]
    if bad:
        raise ConfigError("; ".join(bad))


def _start_tracker(cfg: ScenarioConfig, steps: int | None):
    """The estimator's models, initial state and the legs; raises
    ConfigError for a config validate_config rejects."""
    problems = validate_config(cfg)
    if problems:
        raise ConfigError("; ".join(problems))
    _check_counts(steps=steps)
    omni_v_max = cfg.omni_v_max if cfg.mode == MODE_OMNI else None
    models = est.EstimatorModels(cfg.robot, cfg.offsets, cfg.sensor_models(),
                                 assignment_cap=cfg.assignment_cap,
                                 omni_v_max=omni_v_max)
    state = est.make_state(*initial_sets(cfg), models.spec)
    trajectory = cfg.trajectory if steps is None else cfg.trajectory[:steps]
    return models, state, trajectory


def _track(state: est.EstimatorState, u: Control | None,
           batches: Sequence[Sequence[Measurement]],
           models: est.EstimatorModels,
           fallback_predict: bool = False) -> tuple[est.EstimatorState, bool]:
    """One estimator step under the run's fault policy: a fault aborts with
    ScenarioFault, or under fallback_predict keeps the step's prediction (and
    says so in the returned flag)."""
    try:
        return est.step(state, u, batches, models), False
    except est.StepFault as fault:
        if not fallback_predict:
            raise ScenarioFault(fault.predicted.k, fault.cause) from fault
        return fault.predicted, True


@dataclass
class _SensorEntry:
    xy: ConvexPolygon
    theta: AngleInterval
    held: bool | None = None                # the sets hold the true pose
    tails: tuple[str, str] | None = None    # the two lines less their step


class _SensorRecords:
    """What a run scores and writes of each stationary sensor's sets: whether
    they hold its true pose, and its two geometry.ndjson lines less their
    step.  An update hands a sensor's sets on as the same objects wherever
    it does not narrow them, so each sensor's entry is kept for as long as
    its position and orientation sets are the objects it was made from."""

    def __init__(self, sensors: Sequence[SensorSite]):
        self.sensors = sensors
        self._entries: list[_SensorEntry | None] = [None] * len(sensors)

    def _entry(self, i: int, state: est.EstimatorState) -> _SensorEntry:
        xy, theta = state.sensor_xy[i], state.sensor_theta[i]
        entry = self._entries[i]
        if entry is None or entry.xy is not xy or entry.theta is not theta:
            entry = self._entries[i] = _SensorEntry(xy, theta)
        return entry

    def held(self, state: est.EstimatorState) -> bool:
        """Whether every sensor's sets hold its true pose, sensor by sensor
        up to the first that does not."""
        for i, site in enumerate(self.sensors):
            entry = self._entry(i, state)
            if entry.held is None:
                entry.held = (geom2d.contains(entry.xy, site.pose.xy)
                              and entry.theta.contains(site.pose.theta))
            if not entry.held:
                return False
        return True

    def lines(self, k: int, state: est.EstimatorState) -> Iterator[str]:
        """Each sensor's position and orientation lines of step k."""
        head = f'{{"step": {k}, '
        for i in range(len(self.sensors)):
            entry = self._entry(i, state)
            if entry.tails is None:
                entry.tails = (
                    _geometry_tail(f"set/sensor{i + 1}/xy", poly=entry.xy),
                    _geometry_tail(f"set/sensor{i + 1}/theta",
                                   interval=entry.theta))
            yield head + entry.tails[0]
            yield head + entry.tails[1]


def _score_set(row: StepRecord, state: est.EstimatorState, truth: Truth,
               sensors: _SensorRecords,
               body_ball: ConvexPolygon | None) -> ConvexPolygon:
    """Fill the set estimator's columns of a row; returns the body set scored
    (without a true heading: the marker set grown by the body disk, and a
    full-circle heading estimate that any true heading is scored against)."""
    if truth.heading is None:
        body = state.markers[0] if body_ball is None \
            else geom2d.minkowski_sum(state.markers[0], body_ball)
    else:
        body = state.body
    row.set_metrics = compute_metrics(
        body, state.heading, truth.region,
        0.0 if truth.heading is None else truth.heading)
    row.set_contained_markers = all(
        geom2d.contains(p, t) for p, t in zip(state.markers, truth.markers))
    row.set_contained_sensors = sensors.held(state)
    row.set_heading_width = state.heading.width
    return body


def simulate_run(cfg: ScenarioConfig, steps: int | None = None,
                 fallback_predict: bool = False,
                 record_geometry: bool = False,
                 record_measurements: bool = False) -> RunRecord:
    """Run the world and the selected estimators; raises ScenarioFault on an
    estimator abort under the default fault policy."""
    ss = np.random.SeedSequence(cfg.seed)
    rng_proc, rng_meas, rng_shuf, rng_fs = \
        (np.random.default_rng(c) for c in ss.spawn(4))
    models, state, trajectory = _start_tracker(cfg, steps)
    ps = None
    if cfg.wants("fastslam"):
        ps = fs.init_particles(state.markers, state.sensor_xy,
                               state.sensor_theta, cfg.fastslam_particles,
                               rng_fs)
    omni = cfg.mode == MODE_OMNI
    body_ball = geom2d.ball_outer_polygon(cfg.omni_radius) \
        if omni and cfg.omni_radius > 0.0 else None
    noise_bounds = _noise_bounds(cfg.sensors, cfg.n_markers)
    sensors = _SensorRecords(cfg.sensors)

    rec = RunRecord(cfg.mode, cfg.seed)
    if record_geometry and not omni:
        _dump_state(rec, 0, state, _bicycle_truth(cfg.start, cfg), None,
                    sensors)
    world = _omni_world if omni else _bicycle_world
    for k, u, truth in world(cfg, trajectory, rng_proc):
        batches = _measurement_batches(truth.markers, cfg.sensors,
                                       noise_bounds, rng_meas, rng_shuf)
        if record_measurements:
            rec.measurements.extend(measurement_to_line(k, m)
                                    for b in batches for m in b)
        row = StepRecord(k)

        if cfg.wants("set"):
            t0 = time.perf_counter()
            state, fell_back = _track(state, u, batches, models,
                                      fallback_predict)
            row.set_wall_ms = 1e3 * (time.perf_counter() - t0)
            rec.set_fallbacks += fell_back
            body = _score_set(row, state, truth, sensors, body_ball)

        fs_dump = None
        if ps is not None:
            t0 = time.perf_counter()
            ps = fs.predict(ps, u, cfg.robot, cfg.offsets, models.spec, rng_fs)
            ps = fs.weight_update(ps, batches, cfg.sensor_models())
            ps = fs.resample(ps, rng_fs)
            fs_dump = (fs.estimate_body_particles(ps),
                       fs.heading_interval_particles(ps, models.spec))
            row.fs_wall_ms = 1e3 * (time.perf_counter() - t0)
            row.fs_metrics = compute_metrics(*fs_dump, truth.region,
                                             truth.heading)
            row.fs_heading_width = fs_dump[1].width
            rec.fs_degenerate_resets = ps.degenerate_resets

        rec.rows.append(row)
        if record_geometry and omni:
            rec.geometry += [
                _geometry_line(k, "truth/center", pose=truth.pose),
                _geometry_line(k, "set/marker1", poly=state.markers[0]),
                _geometry_line(k, "set/body", poly=body)]
        elif record_geometry:
            _dump_state(rec, k, state if cfg.wants("set") else None, truth,
                        fs_dump, sensors)
    return rec


def _dump_state(rec: RunRecord, k: int, state: est.EstimatorState | None,
                truth: Truth,
                fs_dump: tuple[ConvexPolygon, AngleInterval] | None,
                sensors: _SensorRecords) -> None:
    rec.geometry.append(_geometry_line(k, "truth/pose", pose=truth.pose))
    rec.geometry.append(_geometry_line(k, "truth/body", poly=truth.region))
    if state is not None:
        for j, p in enumerate(state.markers):
            rec.geometry.append(_geometry_line(k, f"set/marker{j + 1}", poly=p))
        rec.geometry.extend(sensors.lines(k, state))
        rec.geometry.append(_geometry_line(k, "set/body", poly=state.body))
        rec.geometry.append(_geometry_line(k, "set/heading",
                                           interval=state.heading))
    if fs_dump is not None:
        rec.geometry.append(_geometry_line(k, "fs/body", poly=fs_dump[0]))
        rec.geometry.append(_geometry_line(k, "fs/heading",
                                           interval=fs_dump[1]))


def replay_run(cfg: ScenarioConfig, measurement_lines: Sequence[str],
               steps: int | None = None) -> list[est.EstimatorState]:
    """Drive the guaranteed estimator from a recorded measurement stream.

    This is the stand-in for live sensor ingestion: controls come from the
    config's trajectory, measurements from the serialized records.  The
    returned per-step states match a simulate_run that produced the stream;
    a stream the estimator cannot explain raises ScenarioFault.
    """
    models, state, trajectory = _start_tracker(cfg, steps)
    batches_per_step = batches_from_lines(measurement_lines, len(trajectory),
                                          cfg.n_sensors, cfg.n_markers)
    states: list[est.EstimatorState] = []
    for leg, batches in zip(trajectory, batches_per_step):
        u = None if cfg.mode == MODE_OMNI else Control(*leg)
        state, _ = _track(state, u, batches, models)
        states.append(state)
    return states


# ---------------------------------------------------------------------------
# sensitivity sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    parameter: str
    value: float
    seed: int
    estimator: str
    mean_m1: float
    std_m1: float
    mean_m2: float
    std_m2: float
    steps: int
    faulted: bool


def apply_parameter(cfg: ScenarioConfig, parameter: str,
                    value: float) -> ScenarioConfig:
    """Derive a config with one swept quantity replaced everywhere it acts;
    ConfigError when a model rejects the value."""
    try:
        if parameter == "eps_wa":
            sensors = tuple(SensorSite(s.pose, replace(
                s.model, eps_bearing=math.radians(value))) for s in cfg.sensors)
            return replace(cfg, sensors=sensors)
        if parameter == "eps_wr":
            sensors = tuple(SensorSite(s.pose, replace(s.model, eps_range=value))
                            for s in cfg.sensors)
            return replace(cfg, sensors=sensors)
        if parameter == "V_Pi0":
            return replace(cfg, initial_marker_area=value)
        if parameter == "eps_v":
            return replace(cfg, robot=replace(cfg.robot, eps_v=value))
        if parameter == "eps_delta":
            return replace(cfg, robot=replace(cfg.robot,
                                              eps_delta=math.radians(value)))
    except ValueError as exc:
        raise ConfigError(f"{parameter} = {value!r}: {exc}") from exc
    raise ConfigError(f"unknown sweep parameter {parameter!r}; "
                      f"expected one of {SWEEP_PARAMETERS}")


def _sweep_cell(args: tuple[ScenarioConfig, str, float, int, int | None, str]
                ) -> SweepRow:
    cfg, parameter, value, seed, steps, estimator = args
    # each estimator draws its noise from its own stream, so a run of one
    # estimator alone gives its row of a run of both
    cell_cfg = replace(apply_parameter(cfg, parameter, value), seed=seed,
                       estimators=estimator)
    # under the fallback policy every cell runs to its end; a set row whose
    # sets were only carried predictions at some step shows as faulted
    rec = simulate_run(cell_cfg, steps=steps, fallback_predict=True)
    if estimator == "set":
        m1s, m2s = rec.set_m1(), rec.set_m2()
    else:
        m1s, m2s = rec.fs_m1(), rec.fs_m2()
    if not m1s:
        return SweepRow(parameter, value, seed, estimator,
                        math.nan, math.nan, math.nan, math.nan, 0, True)
    return SweepRow(parameter, value, seed, estimator,
                    float(np.mean(m1s)), float(np.std(m1s)),
                    float(np.mean(m2s)), float(np.std(m2s)), len(m1s),
                    estimator == "set" and rec.set_fallbacks > 0)


def sensitivity_sweep(cfg: ScenarioConfig, parameter: str,
                      values: Sequence[float], n_seeds: int,
                      steps: int | None = None, jobs: int = 1
                      ) -> list[SweepRow]:
    """Run every value x seed cell for the selected estimators.

    Cells are independent; per-cell faults are recorded and the sweep
    continues.  Each estimator of a cell is one task, the slower set
    estimator's first, so a pool balances its workers.  Row order is
    deterministic regardless of execution order.
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    _check_counts(seeds=n_seeds, steps=steps, jobs=jobs)
    tasks = [(cfg, parameter, float(v), cfg.seed + s, steps, estimator)
             for estimator in ("set", "fastslam") if cfg.wants(estimator)
             for v in values for s in range(n_seeds)]
    if not tasks:
        raise ConfigError(f"unknown estimators selection {cfg.estimators!r}")
    # a pool forks all its workers at once: no more than there are tasks
    workers = min(jobs, len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, tasks))
    else:
        rows = [_sweep_cell(t) for t in tasks]
    rows.sort(key=lambda r: (r.value, r.seed, r.estimator))
    return rows


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    out = ["parameter,value,seed,estimator,mean_m1,std_m1,mean_m2,std_m2,steps,faulted"]
    for r in rows:
        out.append(f"{r.parameter},{repr(r.value)},{r.seed},{r.estimator},"
                   f"{repr(r.mean_m1)},{repr(r.std_m1)},{repr(r.mean_m2)},"
                   f"{repr(r.std_m2)},{r.steps},{int(r.faulted)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def _get(parser: configparser.ConfigParser, section: str, key: str,
         cast, default=None):
    if not parser.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"[{section}] missing required key '{key}'")
    raw = parser.get(section, key)
    try:
        value = cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: {raw!r} is not a finite number")
    return value


def parse_config(text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    for required in ("scenario", "robot", "initial_sets", "trajectory"):
        if not parser.has_section(required):
            raise ConfigError(f"missing section [{required}]")

    mode = _get(parser, "scenario", "mode", str, MODE_BICYCLE)
    if mode not in (MODE_BICYCLE, MODE_OMNI):
        raise ConfigError(f"[scenario] mode: unknown mode {mode!r}")
    seed = _get(parser, "scenario", "seed", int, 0)
    estimators = _get(parser, "scenario", "estimators", str, "both")
    cap = _get(parser, "scenario", "assignment_cap", int, 1000)

    try:
        robot = RobotModel(
            wheelbase=_get(parser, "robot", "wheelbase", float, 1.0),
            dt=_get(parser, "robot", "dt", float),
            body_length=_get(parser, "robot", "body_length", float, 0.0),
            body_width=_get(parser, "robot", "body_width", float, 0.0),
            eps_v=_get(parser, "robot", "eps_v", float, 0.0),
            eps_delta=math.radians(_get(parser, "robot", "eps_delta_deg",
                                        float, 0.0)),
            eps_f=_get(parser, "robot", "eps_f", float, 0.0))
    except ValueError as exc:
        raise ConfigError(f"[robot] {exc}") from exc
    start = RobotPose(_get(parser, "robot", "x0", float),
                      _get(parser, "robot", "y0", float),
                      math.radians(_get(parser, "robot", "theta0_deg",
                                        float, 0.0)))

    v_max = 0.0
    radius = 0.0
    if mode == MODE_OMNI:
        v_max = _get(parser, "omni", "v_max", float)
        radius = _get(parser, "omni", "body_radius", float, 0.0)
        offsets: tuple[MarkerOffset, ...] = (MarkerOffset(0.0, 0.0),)
    else:
        offsets = corner_marker_offsets(robot)

    init_marker = _get(parser, "initial_sets", "marker_area", float)
    init_sensor = _get(parser, "initial_sets", "sensor_area", float)
    init_theta = math.radians(_get(parser, "initial_sets",
                                   "sensor_theta_deg", float))
    center_dx = _get(parser, "initial_sets", "marker_center_dx", float, 0.0)
    center_dy = _get(parser, "initial_sets", "marker_center_dy", float, 0.0)

    defaults = {
        "kind": ANGLE_RANGE,
        "eps_bearing_deg": 1.0,
        "eps_range": 0.1,
        "fov_deg": 360.0,
        "max_range": 20.0,
    }
    if parser.has_section("sensor_defaults"):
        for key in defaults:
            if parser.has_option("sensor_defaults", key):
                cast = str if key == "kind" else float
                defaults[key] = _get(parser, "sensor_defaults", key, cast)

    sensors = []
    idx = 1
    while parser.has_section(f"sensor.{idx}"):
        sec = f"sensor.{idx}"
        kind = _get(parser, sec, "kind", str, defaults["kind"])
        try:
            model = SensorModel(
                kind=kind,
                eps_bearing=math.radians(_get(parser, sec, "eps_bearing_deg",
                                              float, defaults["eps_bearing_deg"])),
                eps_range=_get(parser, sec, "eps_range", float,
                               defaults["eps_range"]),
                fov=math.radians(_get(parser, sec, "fov_deg", float,
                                      defaults["fov_deg"])),
                max_range=_get(parser, sec, "max_range", float,
                               defaults["max_range"]))
            pose = SensorPose(_get(parser, sec, "x", float),
                              _get(parser, sec, "y", float),
                              math.radians(_get(parser, sec, "theta_deg",
                                                float, 0.0)))
        except ValueError as exc:
            raise ConfigError(f"[{sec}] {exc}") from exc
        sensors.append(SensorSite(pose, model))
        idx += 1
    if not sensors:
        raise ConfigError("no [sensor.N] sections found")

    legs: list[tuple[float, float]] = []
    for key in sorted(parser.options("trajectory"),
                      key=lambda s: (len(s), s)):
        raw = parser.get("trajectory", key).split()
        if len(raw) != 3:
            raise ConfigError(f"[trajectory] {key}: expected 'count v angle_deg'")
        try:
            count = int(raw[0])
            v = float(raw[1])
            ang = math.radians(float(raw[2]))
        except ValueError as exc:
            raise ConfigError(f"[trajectory] {key}: {exc}") from exc
        if not (math.isfinite(v) and math.isfinite(ang)):
            raise ConfigError(f"[trajectory] {key}: speed and angle must be "
                              f"finite numbers")
        if count < 1:
            raise ConfigError(f"[trajectory] {key}: count must be >= 1")
        legs.extend([(v, ang)] * count)
    if parser.has_option("scenario", "steps"):
        steps = _get(parser, "scenario", "steps", int)
        if steps < 1:
            raise ConfigError("[scenario] steps must be >= 1")
        legs = legs[:steps]

    particles = fs.DEFAULT_PARTICLES
    if parser.has_section("fastslam"):
        particles = _get(parser, "fastslam", "particles", int,
                         fs.DEFAULT_PARTICLES)

    return ScenarioConfig(
        mode=mode, seed=seed, estimators=estimators, assignment_cap=cap,
        robot=robot, start=start, offsets=offsets, sensors=tuple(sensors),
        trajectory=tuple(legs), initial_marker_area=init_marker,
        initial_sensor_area=init_sensor, initial_sensor_theta=init_theta,
        marker_center_offset=(center_dx, center_dy),
        fastslam_particles=particles, omni_v_max=v_max, omni_radius=radius)


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def builtin_config_text(name: str) -> str:
    """Raw text of a bundled scenario config ('parking' or 'omni')."""
    fname = f"{name}.cfg"
    ref = resources.files("setloc.data").joinpath(fname)
    if not ref.is_file():
        raise ConfigError(f"no bundled config named {name!r}")
    return ref.read_text(encoding="utf-8")


def load_builtin(name: str) -> ScenarioConfig:
    return parse_config(builtin_config_text(name))
